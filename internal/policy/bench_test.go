package policy

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkParseBuiltin(b *testing.B) {
	src, err := BuiltinSource("MultiPrimariesConsistency")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	spec, err := Builtin("LowLatencyInstance")
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]Value{"t": DurationVal(time.Second)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(spec, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalGuard(b *testing.B) {
	toks, err := Lex("threshold.latency > 800ms && threshold.period > 30s")
	if err != nil {
		b.Fatal(err)
	}
	p := &parser{toks: toks}
	expr, err := p.parseExpr()
	if err != nil {
		b.Fatal(err)
	}
	env := NewMapEnv()
	env.Set("threshold.latency", DurationVal(900*time.Millisecond))
	env.Set("threshold.period", DurationVal(time.Minute))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(expr, env); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExec discards actions: measures pure engine dispatch cost.
type benchExec struct{}

func (benchExec) Do(*ActionCall) error       { return nil }
func (benchExec) Assign(string, Value) error { return nil }

// insertFirings are the insert bodies the put path fires: each global
// consistency policy (primary-backup on both of its branches) under the
// attributes a Wiera node binds, and the local write-back instance under a
// Tiera instance's.
func insertFirings(tb testing.TB) map[string]func() error {
	out := map[string]func() error{}
	add := func(name string, spec *Spec, bind func(*OpEnv)) {
		prog, err := Compile(spec, map[string]Value{"t": DurationVal(time.Second)})
		if err != nil {
			tb.Fatal(err)
		}
		ev := prog.ByKind(KindInsert)[0]
		env := new(OpEnv)
		bind(env)
		out[name] = func() error {
			fired, err := ev.Fire(env, benchExec{})
			if err == nil && !fired {
				err = fmt.Errorf("%s: insert event did not fire", name)
			}
			return err
		}
	}
	node := func(isPrimary bool) func(*OpEnv) {
		return func(e *OpEnv) { e.BindInsert("k", 128); e.BindPrimary(isPrimary) }
	}
	builtin := func(name string) *Spec {
		spec, err := Builtin(name)
		if err != nil {
			tb.Fatal(err)
		}
		return spec
	}
	bench, err := Parse(benchEventualThreeSrc)
	if err != nil {
		tb.Fatal(err)
	}
	add("EventualConsistency", builtin("EventualConsistency"), node(false))
	add("BenchEventualThree", bench, node(false))
	add("MultiPrimariesConsistency", builtin("MultiPrimariesConsistency"), node(false))
	add("PrimaryBackupConsistency/primary", builtin("PrimaryBackupConsistency"), node(true))
	add("PrimaryBackupConsistency/backup", builtin("PrimaryBackupConsistency"), node(false))
	add("LowLatencyInstance", builtin("LowLatencyInstance"),
		func(e *OpEnv) { e.BindInsert("k", 128); e.BindInto("tier1") })
	return out
}

// TestFireInsertAllocatesNothing is the proof that nothing is derived from
// the policy text per operation: firing a put's insert body — guard,
// conditions, every action's arguments — allocates no map, no call and no
// environment. (The interpreter this replaced allocated a call and two maps
// per action.)
func TestFireInsertAllocatesNothing(t *testing.T) {
	for name, fire := range insertFirings(t) {
		var err error
		if allocs := testing.AllocsPerRun(200, func() { err = fire() }); allocs != 0 || err != nil {
			t.Errorf("%s: %.0f allocs per firing (want 0), err %v", name, allocs, err)
		}
	}
}

func BenchmarkFireInsertEvent(b *testing.B) {
	for name, fire := range insertFirings(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fire(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
