package policy

import (
	"fmt"
	"strings"
	"time"
)

// EventKind classifies compiled events by what triggers them.
type EventKind int

// Event kinds recognized by the engine.
const (
	// KindInsert fires on object insertion (the action event
	// "insert.into", optionally guarded by a target tier).
	KindInsert EventKind = iota
	// KindGet fires on object retrieval ("get.from").
	KindGet
	// KindTimer fires periodically ("time = t").
	KindTimer
	// KindFilled fires when a tier's fill fraction crosses a threshold
	// ("tier2.filled == 50%").
	KindFilled
	// KindObjectMonitor fires per object matching a metadata predicate,
	// evaluated by a periodic scan ("object.lastAccessedTime > 120h" — the
	// paper's ColdDataMonitoring).
	KindObjectMonitor
	// KindThreshold fires from the latency/requests monitoring threads
	// ("threshold.type == put" / "threshold.type == primary").
	KindThreshold

	numKinds // count of event kinds; keep last
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindGet:
		return "get"
	case KindTimer:
		return "timer"
	case KindFilled:
		return "filled"
	case KindObjectMonitor:
		return "object-monitor"
	case KindThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// CompiledEvent is one event/response pair classified and parameterized.
type CompiledEvent struct {
	Kind EventKind
	Expr Expr   // original event expression, used as the firing guard
	Body []Stmt // response statements as parsed

	body      []step // Body lowered by Compile; what firing executes
	unguarded bool   // FireGuard is constantly true

	// Kind-specific parameters.
	Period   time.Duration // KindTimer: firing period
	Tier     string        // KindFilled: tier label
	FillFrac float64       // KindFilled: threshold in [0,1]
	Monitor  string        // KindThreshold: monitor name (put, get, primary)
}

// Program is a compiled policy specification ready to execute.
type Program struct {
	Spec   *Spec
	Events []*CompiledEvent
	byKind [numKinds][]*CompiledEvent
	params *MapEnv
}

// Compile classifies every event in spec, lowers its response body into
// the form firing executes and indexes the events by kind, so that nothing
// that is a function of the policy text is derived again per operation.
// params binds declaration parameters (e.g. {"t": DurationVal(10*time.Second)} for "Tiera X(time
// t)") and is consulted when event expressions reference them.
func Compile(spec *Spec, params map[string]Value) (*Program, error) {
	env := NewMapEnv()
	for k, v := range params {
		env.Set(k, v)
	}
	p := &Program{Spec: spec, params: env}
	for i := range spec.Events {
		ce, err := classify(&spec.Events[i], env)
		if err != nil {
			return nil, fmt.Errorf("policy: event %d of %s: %w", i, spec.Name, err)
		}
		p.Events = append(p.Events, ce)
		p.byKind[ce.Kind] = append(p.byKind[ce.Kind], ce)
	}
	return p, nil
}

// classify determines an event's kind from its expression shape.
func classify(decl *EventDecl, params Env) (*CompiledEvent, error) {
	ce := &CompiledEvent{Expr: decl.Expr, Body: decl.Body}
	root := firstIdent(decl.Expr)
	switch {
	case root == "":
		return nil, fmt.Errorf("event expression %q names no attribute", decl.Expr)
	case strings.HasPrefix(root, "insert."):
		ce.Kind = KindInsert
	case strings.HasPrefix(root, "get."):
		ce.Kind = KindGet
	case root == "time":
		ce.Kind = KindTimer
		bin, ok := decl.Expr.(*BinaryExpr)
		if !ok || bin.Op != TokEq {
			return nil, fmt.Errorf("timer event must be time = <duration>")
		}
		v, err := Eval(bin.Right, params)
		if err != nil {
			return nil, err
		}
		if v.Kind != ValDuration {
			return nil, fmt.Errorf("timer period %s is not a duration", v)
		}
		ce.Period = v.Dur
	case strings.HasSuffix(root, ".filled"):
		ce.Kind = KindFilled
		ce.Tier = strings.TrimSuffix(root, ".filled")
		bin, ok := decl.Expr.(*BinaryExpr)
		if !ok || (bin.Op != TokEq && bin.Op != TokGe && bin.Op != TokGt) {
			return nil, fmt.Errorf("filled event must compare %s.filled to a percent", ce.Tier)
		}
		v, err := Eval(bin.Right, params)
		if err != nil {
			return nil, err
		}
		switch v.Kind {
		case ValPercent:
			ce.FillFrac = v.Num / 100
		case ValNumber:
			ce.FillFrac = v.Num
		default:
			return nil, fmt.Errorf("filled threshold %s is not a percent", v)
		}
		if ce.FillFrac < 0 || ce.FillFrac > 1 {
			return nil, fmt.Errorf("filled threshold %.3f outside [0,1]", ce.FillFrac)
		}
	case strings.HasPrefix(root, "object."):
		ce.Kind = KindObjectMonitor
	case strings.HasPrefix(root, "threshold."):
		ce.Kind = KindThreshold
		if bin, ok := decl.Expr.(*BinaryExpr); ok && bin.Op == TokEq {
			v, err := Eval(bin.Right, params)
			if err != nil {
				return nil, err
			}
			if v.Kind == ValIdent || v.Kind == ValString {
				ce.Monitor = v.Str
			}
		}
		if ce.Monitor == "" {
			return nil, fmt.Errorf("threshold event must be threshold.type == <monitor>")
		}
	default:
		return nil, fmt.Errorf("unrecognized event expression %q", decl.Expr)
	}
	// Bare attribute references (event(insert.into)) always fire; timer,
	// filled and object-monitor events fire from schedulers that already
	// checked the condition.
	_, bare := decl.Expr.(*IdentExpr)
	ce.unguarded = bare || ce.Kind == KindTimer || ce.Kind == KindFilled || ce.Kind == KindObjectMonitor
	var err error
	if ce.body, err = lower(decl.Body); err != nil {
		return nil, err
	}
	return ce, nil
}

// firstIdent returns the leftmost identifier path in expr.
func firstIdent(expr Expr) string {
	switch e := expr.(type) {
	case *IdentExpr:
		return e.Path
	case *UnaryExpr:
		return firstIdent(e.X)
	case *BinaryExpr:
		if s := firstIdent(e.Left); s != "" {
			return s
		}
		return firstIdent(e.Right)
	default:
		return ""
	}
}

// ByKind returns the compiled events of one kind, in declaration order. The
// slice is the program's own index, built by Compile: callers read it and
// must not modify it.
func (p *Program) ByKind(kind EventKind) []*CompiledEvent {
	if kind < 0 || kind >= numKinds {
		return nil
	}
	return p.byKind[kind]
}

// Predicate tests one object's metadata environment; used for "what"
// selectors like object.location == tier1 && object.dirty == true.
type Predicate func(objEnv Env) (bool, error)

// step is one lowered response statement. Compile builds the steps of a
// body once; firing the event walks them and evaluates only what depends on
// the environment.
type step struct {
	kind stepKind
	path string // stepAssign: the attribute assigned
	expr Expr   // stepAssign: the value; stepIf: the condition
	then []step // stepIf
	els  []step // stepIf
	args []arg  // stepAction
	name string // stepAction
}

type stepKind uint8

const (
	stepAssign stepKind = iota
	stepIf
	stepAction
)

// arg is one action argument classified at compile time.
type arg struct {
	name string
	kind argKind
	val  Value // argLit: the literal; argIdent: the identifier, standing for itself when unbound
	expr Expr  // argExpr, argPred
}

type argKind uint8

const (
	// argLit is a literal: its value is fixed when the policy is compiled.
	argLit argKind = iota
	// argIdent is a bare identifier: one environment lookup per firing, the
	// identifier itself when unbound (to: tier2, to: all_regions).
	argIdent
	// argExpr is any other expression over the firing's environment.
	argExpr
	// argPred mentions object.*: it is not evaluated when the event fires
	// but handed to the executor as a Predicate to test per object.
	argPred
)

// lower compiles response statements into steps.
func lower(stmts []Stmt) ([]step, error) {
	out := make([]step, 0, len(stmts))
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignStmt:
			out = append(out, step{kind: stepAssign, path: st.Path, expr: st.Expr})
		case *IfStmt:
			then, err := lower(st.Then)
			if err != nil {
				return nil, err
			}
			els, err := lower(st.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, step{kind: stepIf, expr: st.Cond, then: then, els: els})
		case *ActionStmt:
			args := make([]arg, len(st.Args))
			for i, a := range st.Args {
				args[i] = lowerArg(a)
			}
			out = append(out, step{kind: stepAction, name: st.Name, args: args})
		default:
			return nil, fmt.Errorf("policy: unknown statement %T", s)
		}
	}
	return out, nil
}

func lowerArg(a Arg) arg {
	out := arg{name: a.Name, kind: argExpr, expr: a.Expr}
	switch e := a.Expr.(type) {
	case *LitExpr:
		out.kind, out.val = argLit, e.Val
	case *IdentExpr:
		out.kind, out.val = argIdent, IdentVal(e.Path)
	}
	if ReferencesPrefix(a.Expr, "object.") {
		out.kind = argPred
	}
	return out
}

// inlineArgs is how many evaluated arguments an ActionCall holds without a
// heap slice; the paper's actions take at most three (what, to, bandwidth).
const inlineArgs = 4

// ActionCall is one response action with its arguments evaluated against the
// firing's environment. Arguments that mention object.* are predicates over
// object attributes (Pred); all others are values (Arg, StringArg).
//
// A call handed to Executor.Do is valid until Do returns: on the operation
// path the engine reuses one call per firing, so an executor that needs an
// argument later copies the value out. Predicates stay valid as long as the
// firing's environment does.
type ActionCall struct {
	Name string
	args []arg             // the compiled action's arguments, shared and read-only
	vals [inlineArgs]Value // evaluated value arguments, by position
	more []Value           // positions from inlineArgs on
	env  Env               // the firing's environment, second in a predicate's lookup chain
}

// bind evaluates st's value arguments in env into c.
func (c *ActionCall) bind(st *step, env Env) error {
	c.Name, c.args, c.env = st.name, st.args, env
	c.more = nil
	if len(st.args) > inlineArgs {
		c.more = make([]Value, len(st.args)-inlineArgs)
	}
	for i := range st.args {
		a := &st.args[i]
		var v Value
		switch a.kind {
		case argLit:
			v = a.val
		case argIdent:
			var ok bool
			if v, ok = env.Lookup(a.val.Str); !ok {
				v = a.val
			}
		case argExpr:
			var err error
			if v, err = Eval(a.expr, env); err != nil {
				return err
			}
		}
		*c.slot(i) = v
	}
	return nil
}

// slot is where the value of the argument at position i lives.
func (c *ActionCall) slot(i int) *Value {
	if i < inlineArgs {
		return &c.vals[i]
	}
	return &c.more[i-inlineArgs]
}

// find returns the position of the last argument called name that is (or is
// not) a predicate, or -1.
func (c *ActionCall) find(name string, pred bool) int {
	for i := len(c.args) - 1; i >= 0; i-- {
		if c.args[i].name == name && (c.args[i].kind == argPred) == pred {
			return i
		}
	}
	return -1
}

// Arg returns the named evaluated argument value.
func (c *ActionCall) Arg(name string) (Value, bool) {
	i := c.find(name, false)
	if i < 0 {
		return Value{}, false
	}
	return *c.slot(i), true
}

// StringArg returns the named argument as a string (identifier or string
// value) or an error.
func (c *ActionCall) StringArg(name string) (string, error) {
	v, ok := c.Arg(name)
	if !ok {
		return "", fmt.Errorf("policy: action %s missing argument %q", c.Name, name)
	}
	if v.Kind != ValIdent && v.Kind != ValString {
		return "", fmt.Errorf("policy: action %s argument %q is %s, want name", c.Name, name, v)
	}
	return v.Str, nil
}

// Pred returns the named argument as a predicate over one object's
// attributes. The predicate resolves identifiers in the object's environment
// first and the firing's environment second.
func (c *ActionCall) Pred(name string) (Predicate, bool) {
	i := c.find(name, true)
	if i < 0 {
		return nil, false
	}
	expr, outer := c.args[i].expr, c.env
	return func(objEnv Env) (bool, error) {
		return EvalBool(expr, &chainEnv{first: objEnv, second: outer})
	}, true
}

// Executor carries out response actions and attribute assignments. The
// Tiera layer implements local actions (store, copy, move, delete, grow);
// the Wiera layer adds global ones (forward, queue, lock, release,
// change_policy).
type Executor interface {
	// Do performs one action. Unknown actions should return an error. The
	// call must not be retained after Do returns (see ActionCall).
	Do(call *ActionCall) error
	// Assign sets an attribute path (insert.object.dirty = true).
	Assign(path string, v Value) error
}

// FireGuard evaluates the event's expression as its firing guard in env.
// Bare attribute references (event(insert.into)) count as true; boolean
// expressions are evaluated.
func (e *CompiledEvent) FireGuard(env Env) (bool, error) {
	if e.unguarded {
		return true, nil
	}
	v, err := Eval(e.Expr, env)
	if err != nil {
		return false, err
	}
	if v.Kind != ValBool {
		return true, nil // non-boolean event exprs (e.g. insert.into) fire unconditionally
	}
	return v.Bool, nil
}

// Execute runs the event's response body in env against exec.
func (e *CompiledEvent) Execute(env Env, exec Executor) error {
	// An operation's environment carries the one ActionCall its firings
	// reuse; any other environment gets a fresh call per action.
	var scratch *ActionCall
	if op, ok := env.(*OpEnv); ok {
		scratch = &op.call
	}
	return run(e.body, env, exec, scratch)
}

// Fire evaluates the guard and, when it holds, executes the body. It
// reports whether the body ran.
func (e *CompiledEvent) Fire(env Env, exec Executor) (bool, error) {
	ok, err := e.FireGuard(env)
	if err != nil || !ok {
		return false, err
	}
	if err := e.Execute(env, exec); err != nil {
		return true, err
	}
	return true, nil
}

// run executes lowered steps in order, stopping at the first error.
func run(steps []step, env Env, exec Executor, scratch *ActionCall) error {
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case stepAssign:
			v, err := Eval(st.expr, env)
			if err != nil {
				return err
			}
			if err := exec.Assign(st.path, v); err != nil {
				return err
			}
		case stepIf:
			cond, err := EvalBool(st.expr, env)
			if err != nil {
				return err
			}
			branch := st.els
			if cond {
				branch = st.then
			}
			if err := run(branch, env, exec, scratch); err != nil {
				return err
			}
		case stepAction:
			call := scratch
			if call == nil {
				call = new(ActionCall)
			}
			if err := call.bind(st, env); err != nil {
				return err
			}
			if err := exec.Do(call); err != nil {
				return err
			}
		}
	}
	return nil
}

// chainEnv consults first then second.
type chainEnv struct{ first, second Env }

// Lookup implements Env.
func (c *chainEnv) Lookup(path string) (Value, bool) {
	if v, ok := c.first.Lookup(path); ok {
		return v, true
	}
	return c.second.Lookup(path)
}
