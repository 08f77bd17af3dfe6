package policy

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchEventualThreeSrc is the body of bench/policies/eventual3.pol, the
// policy of the benchmark's small-op workload (bench/ is its own module and
// is not imported).
const benchEventualThreeSrc = `
Wiera BenchEventualThree {
	Region1 = {name: LowLatencyInstance, region: us-east,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region2 = {name: LowLatencyInstance, region: us-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	Region3 = {name: LowLatencyInstance, region: eu-west,
		tier1 = {name: memory, size: 5G}, tier2 = {name: ebs-ssd, size: 5G}};
	event(insert.into) : response {
		store(what: insert.object, to: local_instance);
		queue(what: insert.object, to: all_regions);
	}
}`

// corpus returns every policy the repository knows, keyed by where it came
// from: the builtins, the benchmark policy, and every string literal under
// internal/ (tests and experiments included) that parses as a policy — as
// written, with its format verbs filled in, or wrapped in a declaration when
// it is only a list of events. Reading the sources keeps the corpus in step
// with the tests without copying their policies here.
func corpus(t *testing.T) map[string]*Spec {
	t.Helper()
	out := map[string]*Spec{"bench/eventual3": mustParse(t, benchEventualThreeSrc)}
	for _, name := range BuiltinNames() {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		out["builtin/"+name] = spec
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.Contains(src, "event(") || seen[src] {
				return true
			}
			seen[src] = true
			filled := strings.NewReplacer("%s", "x1", "%d", "1", "%v", "1", "%q", `"x1"`).Replace(src)
			for _, candidate := range []string{src, filled, "Wiera Fragment {" + src + "}"} {
				if spec, err := Parse(candidate); err == nil {
					out[fmt.Sprintf("%s:%d", path, fset.Position(lit.Pos()).Line)] = spec
					break
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// identSamples maps every identifier an event mentions to the literals it is
// compared with, which say what kind of value makes its conditions
// well-typed; logical operands sample as booleans.
type identSamples map[string][]Value

func (s identSamples) expr(e Expr, logical bool) {
	switch e := e.(type) {
	case *IdentExpr:
		if _, ok := s[e.Path]; !ok {
			s[e.Path] = nil // mentioned, even if never sampled
		}
		if logical {
			s[e.Path] = append(s[e.Path], BoolVal(true))
		}
	case *UnaryExpr:
		s.expr(e.X, true)
	case *BinaryExpr:
		logical := e.Op == TokAnd || e.Op == TokOr
		s.expr(e.Left, logical)
		s.expr(e.Right, logical)
		if id, ok := e.Left.(*IdentExpr); ok {
			if lit, ok := e.Right.(*LitExpr); ok {
				s[id.Path] = append(s[id.Path], lit.Val)
			}
			if other, ok := e.Right.(*IdentExpr); ok {
				s[id.Path] = append(s[id.Path], IdentVal(other.Path))
			}
		}
	}
}

func (s identSamples) stmts(stmts []Stmt) {
	for _, st := range stmts {
		switch st := st.(type) {
		case *AssignStmt:
			s.expr(st.Expr, false)
		case *IfStmt:
			s.expr(st.Cond, true)
			s.stmts(st.Then)
			s.stmts(st.Else)
		case *ActionStmt:
			for _, a := range st.Args {
				s.expr(a.Expr, false)
			}
		}
	}
}

// randomValue draws a value: usually of the kind (and near the magnitude) of
// one of samples, so guards and conditions go both ways; sometimes of any
// kind, so type errors are exercised too.
func randomValue(r *rand.Rand, samples []Value) Value {
	if len(samples) > 0 && r.Intn(4) > 0 {
		s := samples[r.Intn(len(samples))]
		scale := []float64{0, 0.5, 1, 2}[r.Intn(4)]
		switch s.Kind {
		case ValBool:
			return BoolVal(r.Intn(2) == 0)
		case ValIdent, ValString:
			if r.Intn(3) == 0 {
				return IdentVal("other")
			}
			if r.Intn(2) == 0 {
				return StringVal(s.Str)
			}
			return IdentVal(s.Str)
		case ValNumber:
			return NumberVal(s.Num * scale)
		case ValPercent:
			return PercentVal(s.Num * scale)
		case ValRate:
			return RateVal(s.Num * scale)
		case ValDuration:
			return DurationVal(time.Duration(float64(s.Dur) * scale))
		case ValSize:
			return SizeVal(int64(float64(s.Size) * scale))
		}
	}
	switch r.Intn(7) {
	case 0:
		return BoolVal(r.Intn(2) == 0)
	case 1:
		return IdentVal([]string{"tier1", "tier2", "put", "k"}[r.Intn(4)])
	case 2:
		return StringVal([]string{"tier1", "k", ""}[r.Intn(3)])
	case 3:
		return NumberVal(float64(r.Intn(5)))
	case 4:
		return DurationVal(time.Duration(r.Intn(100)) * time.Second)
	case 5:
		return SizeVal(int64(r.Intn(1 << 20)))
	default:
		return PercentVal(float64(r.Intn(101)))
	}
}

// randomMapEnv binds each identifier with probability bindPct/100.
func randomMapEnv(r *rand.Rand, samples identSamples, paths []string, bindPct func(path string) int) *MapEnv {
	env := NewMapEnv()
	for _, p := range paths {
		if r.Intn(100) < bindPct(p) {
			env.Set(p, randomValue(r, samples[p]))
		}
	}
	return env
}

// randomOpEnv draws an operation environment and the MapEnv binding the
// same attributes to the same values, as the put and get paths bound them
// before OpEnv existed.
func randomOpEnv(r *rand.Rand) (*OpEnv, *MapEnv) {
	op, m := new(OpEnv), NewMapEnv()
	key := []string{"k", "user0042", "", "tier1"}[r.Intn(4)]
	if r.Intn(4) > 0 {
		size := int64(r.Intn(1 << 20))
		op.BindInsert(key, size)
		m.Set("insert.key", StringVal(key))
		m.Set("insert.object", IdentVal(key))
		m.Set("insert.object.size", SizeVal(size))
	}
	if r.Intn(2) == 0 {
		tier := []string{"tier1", "tier2", "tier3"}[r.Intn(3)]
		op.BindInto(tier)
		m.Set("insert.into", IdentVal(tier))
	}
	if r.Intn(3) == 0 {
		op.BindGet(key)
		m.Set("get.key", StringVal(key))
	}
	if r.Intn(4) > 0 {
		primary := r.Intn(2) == 0
		op.BindPrimary(primary)
		m.Set("local_instance.isPrimary", BoolVal(primary))
	}
	return op, m
}

func showValue(v Value) string { return fmt.Sprintf("%d:%s", v.Kind, v) }

// tracer turns what an executor is asked to do into lines, identically for
// the compiled engine's calls and the reference's, and fails the failAt-th
// request so error propagation is compared too.
type tracer struct {
	lines   []string
	failAt  int
	objEnvs []Env
	preds   int
}

func (x *tracer) step(line string) error {
	x.lines = append(x.lines, line)
	if len(x.lines)-1 == x.failAt {
		return fmt.Errorf("forced failure at step %d", x.failAt)
	}
	return nil
}

func (x *tracer) action(name string, argNames []string, arg func(string) (Value, bool), pred func(string) (Predicate, bool)) error {
	sort.Strings(argNames)
	var b strings.Builder
	b.WriteString("do " + name)
	for i, n := range argNames {
		if i > 0 && argNames[i-1] == n {
			continue
		}
		if v, ok := arg(n); ok {
			b.WriteString(" " + n + "=" + showValue(v))
		}
		if p, ok := pred(n); ok {
			b.WriteString(" " + n + "?")
			for _, env := range x.objEnvs {
				x.preds++
				switch ok, err := p(env); {
				case err != nil:
					b.WriteString("[" + err.Error() + "]")
				case ok:
					b.WriteString("T")
				default:
					b.WriteString("F")
				}
			}
		}
	}
	return x.step(b.String())
}

func (x *tracer) Assign(path string, v Value) error {
	return x.step("assign " + path + "=" + showValue(v))
}

// compiledTracer is the tracer as an Executor of compiled bodies. It reads a
// call only inside Do, as the contract requires.
type compiledTracer struct{ tracer }

func (x *compiledTracer) Do(c *ActionCall) error {
	names := make([]string, len(c.args))
	for i, a := range c.args {
		names[i] = a.name
	}
	return x.action(c.Name, names, c.Arg, c.Pred)
}

// referenceTracer is the tracer as an executor of the reference interpreter.
type referenceTracer struct{ tracer }

func (x *referenceTracer) Do(c *refCall) error {
	var names []string
	for n := range c.Args {
		names = append(names, n)
	}
	for n := range c.Preds {
		names = append(names, n)
	}
	return x.action(c.Name, names,
		func(n string) (Value, bool) { v, ok := c.Args[n]; return v, ok },
		func(n string) (Predicate, bool) { p, ok := c.Preds[n]; return p, ok })
}

func outcome(fired bool, err error, lines []string) string {
	return fmt.Sprintf("fired=%v err=%v\n%s", fired, err, strings.Join(lines, "\n"))
}

// TestCompiledBodyMatchesReference holds the lowered bodies to the reference
// interpreter: over the whole corpus and seeded random environments, firing
// an event asks the executor for the same ordered actions — same argument
// values, same predicate verdicts on random objects — and assignments, and
// ends in the same error, whether the environment is a MapEnv (the cold
// callers) or an OpEnv (the put and get paths).
func TestCompiledBodyMatchesReference(t *testing.T) {
	specs := corpus(t)
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)

	const firingsPerEvent = 60
	var events, fired, errored, actions, preds, uncompiled int
	for _, name := range names {
		spec := specs[name]
		params := map[string]Value{}
		for _, p := range spec.Params { // "time t" or bare "t"
			words := strings.Fields(p)
			params[words[len(words)-1]] = DurationVal(time.Second)
		}
		prog, err := Compile(spec, params)
		if err != nil {
			uncompiled++ // rejected programs never fire: nothing to compare
			continue
		}
		for ei, ev := range prog.Events {
			events++
			samples := identSamples{}
			samples.expr(ev.Expr, false)
			samples.stmts(ev.Body)
			paths := make([]string, 0, len(samples))
			for p := range samples {
				paths = append(paths, p)
			}
			sort.Strings(paths)

			r := rand.New(rand.NewSource(int64(len(name)*131 + ei)))
			for i := 0; i < firingsPerEvent; i++ {
				// Objects bind object.* mostly, and now and then an attribute
				// the firing's environment binds too: the object's must win.
				objEnvs := make([]Env, 3)
				for j := range objEnvs {
					objEnvs[j] = randomMapEnv(r, samples, paths, func(p string) int {
						if strings.HasPrefix(p, "object.") {
							return 75
						}
						return 20
					})
				}
				failAt := r.Intn(6) - 2 // negative: no forced failure
				var compiledEnv, referenceEnv Env
				if i%2 == 0 {
					m := randomMapEnv(r, samples, paths, func(string) int { return 70 })
					compiledEnv, referenceEnv = m, m
				} else {
					compiledEnv, referenceEnv = randomOpEnv(r)
				}
				got := &compiledTracer{tracer{failAt: failAt, objEnvs: objEnvs}}
				want := &referenceTracer{tracer{failAt: failAt, objEnvs: objEnvs}}
				gotFired, gotErr := ev.Fire(compiledEnv, got)
				wantFired, wantErr := refFire(ev, referenceEnv, want)
				g, w := outcome(gotFired, gotErr, got.lines), outcome(wantFired, wantErr, want.lines)
				if g != w {
					t.Fatalf("%s event %d (%s) firing %d diverges\ncompiled:\n%s\nreference:\n%s", name, ei, ev.Expr, i, g, w)
				}
				if wantFired {
					fired++
				}
				if wantErr != nil {
					errored++
				}
				actions += len(want.lines)
				preds += want.preds
			}
		}
	}
	t.Logf("%d policies (%d rejected by Compile), %d events, %d firings: %d fired, %d ended in an error, %d executor steps, %d predicate verdicts",
		len(names), uncompiled, events, events*firingsPerEvent, fired, errored, actions, preds)
	// The comparison is only worth its name if the corpus was found and the
	// random environments reached every kind of outcome.
	if len(names) < len(BuiltinNames())+30 || fired == 0 || fired == events*firingsPerEvent || errored == 0 || preds == 0 {
		t.Fatalf("corpus or environments too thin: %d policies, %d/%d fired, %d errors, %d predicate verdicts",
			len(names), fired, events*firingsPerEvent, errored, preds)
	}
}
