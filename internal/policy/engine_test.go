package policy

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEvalLiteralsAndIdents(t *testing.T) {
	env := NewMapEnv()
	env.Set("x", NumberVal(5))
	v, err := Eval(&IdentExpr{Path: "x"}, env)
	if err != nil || v.Num != 5 {
		t.Fatalf("Eval ident = %v, %v", v, err)
	}
	// Unbound identifiers evaluate to themselves (tier names).
	v, err = Eval(&IdentExpr{Path: "tier2"}, env)
	if err != nil || v.Kind != ValIdent || v.Str != "tier2" {
		t.Fatalf("unbound ident = %v, %v", v, err)
	}
}

func evalSrcExpr(t *testing.T, src string, env Env) Value {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	p := &parser{toks: toks}
	expr, err := p.parseExpr()
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(expr, env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", src, err)
	}
	return v
}

func TestEvalComparisons(t *testing.T) {
	env := NewMapEnv()
	env.Set("threshold.latency", DurationVal(900*time.Millisecond))
	env.Set("threshold.period", DurationVal(31*time.Second))
	env.Set("object.dirty", BoolVal(true))
	env.Set("object.location", IdentVal("tier1"))
	cases := map[string]bool{
		"threshold.latency > 800ms":                            true,
		"threshold.latency <= 800ms":                           false,
		"threshold.latency > 800ms && threshold.period > 30s":  true,
		"threshold.latency < 800ms || threshold.period >= 31s": true,
		"object.location == tier1 && object.dirty == true":     true,
		"object.location == tier2":                             false,
		"object.location != tier2":                             true,
		"!(object.location == tier2)":                          true,
		"threshold.latency >= 900ms":                           true,
		"threshold.latency < 1s":                               true,
	}
	for src, want := range cases {
		v := evalSrcExpr(t, src, env)
		if v.Kind != ValBool || v.Bool != want {
			t.Errorf("Eval(%s) = %v, want %v", src, v, want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	env := NewMapEnv()
	env.Set("a", BoolVal(false))
	// Right side would be a type error if evaluated: 5 && ... — but &&
	// short-circuits on false left.
	toks, _ := Lex("a && b")
	p := &parser{toks: toks}
	expr, _ := p.parseExpr()
	// b is unbound -> IdentVal, which is not boolean; short circuit avoids it.
	v, err := Eval(expr, env)
	if err != nil || v.Bool {
		t.Fatalf("short-circuit and = %v, %v", v, err)
	}
	env.Set("a", BoolVal(true))
	toks, _ = Lex("a || b")
	p = &parser{toks: toks}
	expr, _ = p.parseExpr()
	v, err = Eval(expr, env)
	if err != nil || !v.Bool {
		t.Fatalf("short-circuit or = %v, %v", v, err)
	}
}

func TestEvalTypeErrors(t *testing.T) {
	env := NewMapEnv()
	env.Set("d", DurationVal(time.Second))
	env.Set("s", SizeVal(100))
	env.Set("b", BoolVal(true))
	for _, src := range []string{"d > s", "b > b", "!d", "d && b", "d || b"} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{toks: toks}
		expr, err := p.parseExpr()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Eval(expr, env); err == nil {
			t.Errorf("Eval(%s) should be a type error", src)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !IdentVal("x").Equal(StringVal("x")) || !StringVal("x").Equal(IdentVal("x")) {
		t.Fatal("ident/string equality failed")
	}
	if IdentVal("x").Equal(NumberVal(1)) {
		t.Fatal("cross-kind equality should be false")
	}
	if !DurationVal(time.Second).Equal(DurationVal(time.Second)) {
		t.Fatal("duration equality failed")
	}
	if !SizeVal(5).Equal(SizeVal(5)) || SizeVal(5).Equal(SizeVal(6)) {
		t.Fatal("size equality failed")
	}
	if !BoolVal(true).Equal(BoolVal(true)) || BoolVal(true).Equal(BoolVal(false)) {
		t.Fatal("bool equality failed")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		`"hi"`:   StringVal("hi"),
		"5":      NumberVal(5),
		"true":   BoolVal(true),
		"30s":    DurationVal(30 * time.Second),
		"5G":     SizeVal(5 << 30),
		"50%":    PercentVal(50),
		"x":      IdentVal("x"),
		"40KB/s": RateVal(40 << 10),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v.Kind, got, want)
		}
	}
}

func TestCompileClassifiesKinds(t *testing.T) {
	spec := mustParse(t, `
Tiera K(time t) {
	tier1: {name: memory, size: 1G};
	event(insert.into) : response { store(what: insert.object, to: tier1); }
	event(insert.into == tier1) : response { copy(what: insert.object, to: tier2); }
	event(get.from) : response { forward(what: get.key, to: remote); }
	event(time = t) : response { copy(what: object.dirty == true, to: tier2); }
	event(tier2.filled == 50%) : response { copy(what: object.location == tier2, to: tier3); }
	event(object.lastAccessedTime > 120h) : response { move(what: object.location == tier1, to: tier2); }
	event(threshold.type == put) : response { change_policy(what: consistency, to: E); }
}`)
	prog, err := Compile(spec, map[string]Value{"t": DurationVal(5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []EventKind{KindInsert, KindInsert, KindGet, KindTimer, KindFilled, KindObjectMonitor, KindThreshold}
	if len(prog.Events) != len(wantKinds) {
		t.Fatalf("events = %d", len(prog.Events))
	}
	for i, k := range wantKinds {
		if prog.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, prog.Events[i].Kind, k)
		}
	}
	if prog.Events[3].Period != 5*time.Second {
		t.Errorf("timer period = %v", prog.Events[3].Period)
	}
	if prog.Events[4].Tier != "tier2" || prog.Events[4].FillFrac != 0.5 {
		t.Errorf("filled = %q %v", prog.Events[4].Tier, prog.Events[4].FillFrac)
	}
	if prog.Events[6].Monitor != "put" {
		t.Errorf("monitor = %q", prog.Events[6].Monitor)
	}
	if got := len(prog.ByKind(KindInsert)); got != 2 {
		t.Errorf("ByKind(insert) = %d", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`Tiera X { event(time = tier1) : response {} }`,            // non-duration period
		`Tiera X { event(tier1.filled == 5G) : response {} }`,      // non-percent fill
		`Tiera X { event(tier1.filled == 200%) : response {} }`,    // out of range
		`Tiera X { event(threshold.latency > 5ms) : response {} }`, // threshold without type==
		`Tiera X { event(unknown.thing) : response {} }`,           // unclassifiable
		`Tiera X { event(5 == 5) : response {} }`,                  // no attribute at all
	}
	for _, src := range bad {
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Compile(spec, nil); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

// recordExec records actions and assignments for engine tests.
type recordExec struct {
	actions []*ActionCall
	assigns map[string]Value
	failOn  string
}

func newRecordExec() *recordExec { return &recordExec{assigns: map[string]Value{}} }

func (r *recordExec) Do(call *ActionCall) error {
	if call.Name == r.failOn {
		return fmt.Errorf("forced failure on %s", call.Name)
	}
	r.actions = append(r.actions, call)
	return nil
}

func (r *recordExec) Assign(path string, v Value) error {
	r.assigns[path] = v
	return nil
}

func (r *recordExec) names() []string {
	var out []string
	for _, a := range r.actions {
		out = append(out, a.Name)
	}
	return out
}

func TestFireInsertEvent(t *testing.T) {
	spec := mustParse(t, `
Tiera X {
	event(insert.into) : response {
		insert.object.dirty = true;
		store(what: insert.object, to: tier1);
	}
}`)
	prog, err := Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := newRecordExec()
	env := NewMapEnv()
	env.Set("insert.key", StringVal("k"))
	fired, err := prog.Events[0].Fire(env, exec)
	if err != nil || !fired {
		t.Fatalf("Fire = %v, %v", fired, err)
	}
	if v, ok := exec.assigns["insert.object.dirty"]; !ok || !v.Bool {
		t.Fatalf("assign missing: %+v", exec.assigns)
	}
	if len(exec.actions) != 1 || exec.actions[0].Name != "store" {
		t.Fatalf("actions = %v", exec.names())
	}
	to, err := exec.actions[0].StringArg("to")
	if err != nil || to != "tier1" {
		t.Fatalf("to = %q, %v", to, err)
	}
}

func TestFireGuardedInsert(t *testing.T) {
	spec := mustParse(t, `
Tiera X {
	event(insert.into == tier1) : response {
		copy(what: insert.object, to: tier2);
	}
}`)
	prog, _ := Compile(spec, nil)
	exec := newRecordExec()
	env := NewMapEnv()
	env.Set("insert.into", IdentVal("tier3"))
	fired, err := prog.Events[0].Fire(env, exec)
	if err != nil || fired {
		t.Fatalf("guard should block: fired=%v err=%v", fired, err)
	}
	env.Set("insert.into", IdentVal("tier1"))
	fired, err = prog.Events[0].Fire(env, exec)
	if err != nil || !fired {
		t.Fatalf("guard should pass: fired=%v err=%v", fired, err)
	}
	if len(exec.actions) != 1 {
		t.Fatalf("actions = %v", exec.names())
	}
}

func TestFireIfElse(t *testing.T) {
	spec := mustParse(t, `
Wiera X {
	event(insert.into) : response {
		if (local_instance.isPrimary == true) {
			store(what: insert.object, to: local_instance);
			copy(what: insert.object, to: all_regions);
		} else {
			forward(what: insert.object, to: primary_instance);
		}
	}
}`)
	prog, _ := Compile(spec, nil)
	// Primary path.
	exec := newRecordExec()
	env := NewMapEnv()
	env.Set("local_instance.isPrimary", BoolVal(true))
	if _, err := prog.Events[0].Fire(env, exec); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(exec.names(), ","); got != "store,copy" {
		t.Fatalf("primary actions = %s", got)
	}
	// Non-primary path.
	exec = newRecordExec()
	env.Set("local_instance.isPrimary", BoolVal(false))
	if _, err := prog.Events[0].Fire(env, exec); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(exec.names(), ","); got != "forward" {
		t.Fatalf("backup actions = %s", got)
	}
}

func TestPredicateSelector(t *testing.T) {
	spec := mustParse(t, `
Tiera X(time t) {
	event(time = t) : response {
		copy(what: object.location == tier1 && object.dirty == true, to: tier2);
	}
}`)
	prog, err := Compile(spec, map[string]Value{"t": DurationVal(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	exec := newRecordExec()
	if _, err := prog.Events[0].Fire(NewMapEnv(), exec); err != nil {
		t.Fatal(err)
	}
	pred, ok := exec.actions[0].Pred("what")
	if !ok {
		t.Fatal("what should be a predicate")
	}
	obj := NewMapEnv()
	obj.Set("object.location", IdentVal("tier1"))
	obj.Set("object.dirty", BoolVal(true))
	if match, err := pred(obj); err != nil || !match {
		t.Fatalf("pred = %v, %v", match, err)
	}
	obj.Set("object.dirty", BoolVal(false))
	if match, _ := pred(obj); match {
		t.Fatal("clean object should not match")
	}
}

func TestThresholdEventBody(t *testing.T) {
	spec, err := Builtin("DynamicConsistency")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.ByKind(KindThreshold)[0]
	if ev.Monitor != "put" {
		t.Fatalf("monitor = %q", ev.Monitor)
	}
	// High latency for a sustained period -> change to eventual.
	exec := newRecordExec()
	env := NewMapEnv()
	env.Set("threshold.type", IdentVal("put"))
	env.Set("threshold.latency", DurationVal(900*time.Millisecond))
	env.Set("threshold.period", DurationVal(31*time.Second))
	fired, err := ev.Fire(env, exec)
	if err != nil || !fired {
		t.Fatalf("fire = %v, %v", fired, err)
	}
	if len(exec.actions) != 1 || exec.actions[0].Name != "change_policy" {
		t.Fatalf("actions = %v", exec.names())
	}
	to, _ := exec.actions[0].StringArg("to")
	if to != "EventualConsistency" {
		t.Fatalf("to = %q", to)
	}
	// Low latency sustained -> change back.
	exec = newRecordExec()
	env.Set("threshold.latency", DurationVal(100*time.Millisecond))
	if _, err := ev.Fire(env, exec); err != nil {
		t.Fatal(err)
	}
	to, _ = exec.actions[0].StringArg("to")
	if to != "MultiPrimariesConsistency" {
		t.Fatalf("to = %q", to)
	}
	// Wrong monitor type: guard blocks.
	exec = newRecordExec()
	env.Set("threshold.type", IdentVal("get"))
	fired, err = ev.Fire(env, exec)
	if err != nil || fired {
		t.Fatalf("wrong monitor fired = %v, %v", fired, err)
	}
}

func TestExecutorErrorPropagates(t *testing.T) {
	spec := mustParse(t, `
Tiera X {
	event(insert.into) : response {
		store(what: insert.object, to: tier1);
		copy(what: insert.object, to: tier2);
	}
}`)
	prog, _ := Compile(spec, nil)
	exec := newRecordExec()
	exec.failOn = "store"
	fired, err := prog.Events[0].Fire(NewMapEnv(), exec)
	if !fired || err == nil {
		t.Fatalf("fired=%v err=%v", fired, err)
	}
	if len(exec.actions) != 0 {
		t.Fatal("copy should not run after store failed")
	}
}

func TestActionCallHelpers(t *testing.T) {
	call := &ActionCall{Name: "x", args: []arg{{name: "to"}, {name: "n"}},
		vals: [inlineArgs]Value{IdentVal("tier1"), NumberVal(5)}}
	if _, err := call.StringArg("missing"); err == nil {
		t.Fatal("missing arg should error")
	}
	if _, err := call.StringArg("n"); err == nil {
		t.Fatal("numeric arg as string should error")
	}
	if v, ok := call.Arg("n"); !ok || v.Num != 5 {
		t.Fatal("Arg lookup failed")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{KindInsert, KindGet, KindTimer, KindFilled, KindObjectMonitor, KindThreshold, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", int(k))
		}
	}
}

// Property: any expression the parser accepts, the printer renders back to
// something the parser accepts with identical evaluation on a fixed env.
func TestExprPrintEvalProperty(t *testing.T) {
	env := NewMapEnv()
	env.Set("a", NumberVal(1))
	env.Set("b", NumberVal(2))
	env.Set("p", BoolVal(true))
	env.Set("q", BoolVal(false))
	atoms := []string{"a", "b", "p", "q", "1", "2", "true", "false"}
	ops := []string{"==", "!=", "<", ">", "<=", ">=", "&&", "||"}
	f := func(seed []uint8) bool {
		if len(seed) == 0 {
			return true
		}
		// Build a random expression source from the seed.
		src := atoms[int(seed[0])%len(atoms)]
		for i := 1; i+1 < len(seed) && i < 9; i += 2 {
			src = fmt.Sprintf("(%s %s %s)", src, ops[int(seed[i])%len(ops)], atoms[int(seed[i+1])%len(atoms)])
		}
		toks, err := Lex(src)
		if err != nil {
			return true // lexically invalid seeds are out of scope
		}
		p := &parser{toks: toks}
		expr, err := p.parseExpr()
		if err != nil {
			return true
		}
		v1, err1 := Eval(expr, env)
		// Round-trip through the printer.
		toks2, err := Lex(expr.String())
		if err != nil {
			return false
		}
		p2 := &parser{toks: toks2}
		expr2, err := p2.parseExpr()
		if err != nil {
			return false
		}
		v2, err2 := Eval(expr2, env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 == nil && !v1.Equal(v2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- reference interpreter ---------------------------------------------
//
// The tree-walking interpreter the engine ran before Compile lowered bodies
// into steps, kept as the reference the differential test
// (differential_test.go) holds the compiled form to: it re-derives
// everything per firing — predicate detection by walking each argument, a
// call and two maps per action — and is the definition of what a body means.

// refCall is the reference's evaluated action: map-backed.
type refCall struct {
	Name  string
	Args  map[string]Value
	Preds map[string]Predicate
}

// refExecutor is Executor over refCall.
type refExecutor interface {
	Do(call *refCall) error
	Assign(path string, v Value) error
}

func refFireGuard(e *CompiledEvent, env Env) (bool, error) {
	switch e.Expr.(type) {
	case *IdentExpr:
		return true, nil
	}
	if e.Kind == KindTimer || e.Kind == KindFilled || e.Kind == KindObjectMonitor {
		return true, nil
	}
	v, err := Eval(e.Expr, env)
	if err != nil {
		return false, err
	}
	if v.Kind != ValBool {
		return true, nil
	}
	return v.Bool, nil
}

func refFire(e *CompiledEvent, env Env, exec refExecutor) (bool, error) {
	ok, err := refFireGuard(e, env)
	if err != nil || !ok {
		return false, err
	}
	return true, refExecStmts(e.Body, env, exec)
}

func refExecStmts(stmts []Stmt, env Env, exec refExecutor) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignStmt:
			v, err := Eval(st.Expr, env)
			if err != nil {
				return err
			}
			if err := exec.Assign(st.Path, v); err != nil {
				return err
			}
		case *IfStmt:
			cond, err := EvalBool(st.Cond, env)
			if err != nil {
				return err
			}
			if cond {
				if err := refExecStmts(st.Then, env, exec); err != nil {
					return err
				}
			} else if len(st.Else) > 0 {
				if err := refExecStmts(st.Else, env, exec); err != nil {
					return err
				}
			}
		case *ActionStmt:
			call, err := refEvalCall(st, env)
			if err != nil {
				return err
			}
			if err := exec.Do(call); err != nil {
				return err
			}
		default:
			return fmt.Errorf("policy: unknown statement %T", s)
		}
	}
	return nil
}

// refEvalCall evaluates an action's arguments. Arguments whose expressions
// reference object.* become Predicates evaluated later per object; all
// others are evaluated eagerly in env.
func refEvalCall(st *ActionStmt, env Env) (*refCall, error) {
	call := &refCall{Name: st.Name, Args: make(map[string]Value), Preds: make(map[string]Predicate)}
	for _, a := range st.Args {
		if ReferencesPrefix(a.Expr, "object.") {
			expr := a.Expr
			outer := env
			call.Preds[a.Name] = func(objEnv Env) (bool, error) {
				chained := &MapEnv{Vars: map[string]Value{}, Parent: &chainEnv{first: objEnv, second: outer}}
				return EvalBool(expr, chained)
			}
			continue
		}
		v, err := Eval(a.Expr, env)
		if err != nil {
			return nil, err
		}
		call.Args[a.Name] = v
	}
	return call, nil
}
