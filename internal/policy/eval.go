package policy

import (
	"fmt"
	"strings"
)

// Env resolves dotted attribute paths during expression evaluation. The
// Tiera/Wiera layers populate an Env per event firing: insert.key,
// insert.object.size, object.location, local_instance.isPrimary,
// threshold.latency, and so on.
type Env interface {
	// Lookup returns the value bound to path and whether it is bound.
	Lookup(path string) (Value, bool)
}

// MapEnv is an Env backed by a map, optionally chained to a parent.
type MapEnv struct {
	Vars   map[string]Value
	Parent Env
}

// NewMapEnv returns an empty MapEnv.
func NewMapEnv() *MapEnv { return &MapEnv{Vars: make(map[string]Value)} }

// Lookup implements Env.
func (m *MapEnv) Lookup(path string) (Value, bool) {
	if v, ok := m.Vars[path]; ok {
		return v, true
	}
	if m.Parent != nil {
		return m.Parent.Lookup(path)
	}
	return Value{}, false
}

// Set binds path to v.
func (m *MapEnv) Set(path string, v Value) { m.Vars[path] = v }

// OpEnv is the environment of one put or get: the handful of attributes
// insert and get events read, held as fields instead of map entries, plus
// the one ActionCall the operation's firings reuse. It is meant to be a field
// of the per-operation executor, so that an operation allocates neither an
// environment nor a call. Attributes not bound stay unbound: looking one up
// reports false and the identifier evaluates to itself, as in a MapEnv.
type OpEnv struct {
	bound   opAttrs
	key     string
	into    string
	size    int64
	primary bool
	call    ActionCall
}

// opAttrs is the set of attribute groups an OpEnv has bound.
type opAttrs uint8

const (
	opInsert  opAttrs = 1 << iota // insert.key, insert.object, insert.object.size
	opInto                        // insert.into
	opGet                         // get.key
	opPrimary                     // local_instance.isPrimary
)

// BindInsert binds insert.key, insert.object and insert.object.size.
func (e *OpEnv) BindInsert(key string, size int64) {
	e.bound |= opInsert
	e.key, e.size = key, size
}

// BindInto binds insert.into to the tier a put lands in.
func (e *OpEnv) BindInto(tier string) {
	e.bound |= opInto
	e.into = tier
}

// BindGet binds get.key.
func (e *OpEnv) BindGet(key string) {
	e.bound |= opGet
	e.key = key
}

// BindPrimary binds local_instance.isPrimary.
func (e *OpEnv) BindPrimary(isPrimary bool) {
	e.bound |= opPrimary
	e.primary = isPrimary
}

// Lookup implements Env.
func (e *OpEnv) Lookup(path string) (Value, bool) {
	switch path {
	case "insert.key":
		return StringVal(e.key), e.bound&opInsert != 0
	case "insert.object":
		return IdentVal(e.key), e.bound&opInsert != 0
	case "insert.object.size":
		return SizeVal(e.size), e.bound&opInsert != 0
	case "insert.into":
		return IdentVal(e.into), e.bound&opInto != 0
	case "get.key":
		return StringVal(e.key), e.bound&opGet != 0
	case "local_instance.isPrimary":
		return BoolVal(e.primary), e.bound&opPrimary != 0
	}
	return Value{}, false
}

// Eval evaluates expr in env to a Value.
func Eval(expr Expr, env Env) (Value, error) {
	switch e := expr.(type) {
	case *LitExpr:
		return e.Val, nil
	case *IdentExpr:
		if v, ok := env.Lookup(e.Path); ok {
			return v, nil
		}
		// Unbound identifiers evaluate to themselves: tier names and region
		// names appear bare in specs (to:tier2, to:all_regions).
		return IdentVal(e.Path), nil
	case *UnaryExpr:
		v, err := Eval(e.X, env)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != ValBool {
			return Value{}, fmt.Errorf("policy: ! applied to non-boolean %s", v)
		}
		return BoolVal(!v.Bool), nil
	case *BinaryExpr:
		return evalBinary(e, env)
	default:
		return Value{}, fmt.Errorf("policy: unknown expression %T", expr)
	}
}

func evalBinary(e *BinaryExpr, env Env) (Value, error) {
	// Short-circuit logical operators.
	if e.Op == TokAnd || e.Op == TokOr {
		l, err := Eval(e.Left, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != ValBool {
			return Value{}, fmt.Errorf("policy: %s applied to non-boolean %s", e.Op, l)
		}
		if e.Op == TokAnd && !l.Bool {
			return BoolVal(false), nil
		}
		if e.Op == TokOr && l.Bool {
			return BoolVal(true), nil
		}
		r, err := Eval(e.Right, env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != ValBool {
			return Value{}, fmt.Errorf("policy: %s applied to non-boolean %s", e.Op, r)
		}
		return BoolVal(r.Bool), nil
	}

	l, err := Eval(e.Left, env)
	if err != nil {
		return Value{}, err
	}
	r, err := Eval(e.Right, env)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case TokEq:
		return BoolVal(l.Equal(r)), nil
	case TokNeq:
		return BoolVal(!l.Equal(r)), nil
	case TokLt, TokGt, TokLe, TokGe:
		lf, rf, err := comparable2(l, r)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case TokLt:
			return BoolVal(lf < rf), nil
		case TokGt:
			return BoolVal(lf > rf), nil
		case TokLe:
			return BoolVal(lf <= rf), nil
		default:
			return BoolVal(lf >= rf), nil
		}
	default:
		return Value{}, fmt.Errorf("policy: unsupported operator %s", e.Op)
	}
}

// comparable2 coerces two values to ordered float64s; durations compare to
// durations, sizes to sizes, numbers/percents/rates to each other.
func comparable2(l, r Value) (float64, float64, error) {
	num := func(v Value) (float64, bool) {
		switch v.Kind {
		case ValNumber, ValPercent, ValRate:
			return v.Num, true
		case ValDuration:
			return float64(v.Dur), true
		case ValSize:
			return float64(v.Size), true
		default:
			return 0, false
		}
	}
	lf, lok := num(l)
	rf, rok := num(r)
	if !lok || !rok {
		return 0, 0, fmt.Errorf("policy: cannot order %s and %s", l, r)
	}
	// Mixing a duration with a plain number (or size with number) is
	// allowed — the number is taken in the duration's base unit — but
	// duration-vs-size is a type error.
	if l.Kind == ValDuration && r.Kind == ValSize || l.Kind == ValSize && r.Kind == ValDuration {
		return 0, 0, fmt.Errorf("policy: cannot compare duration with size")
	}
	return lf, rf, nil
}

// EvalBool evaluates expr expecting a boolean result.
func EvalBool(expr Expr, env Env) (bool, error) {
	v, err := Eval(expr, env)
	if err != nil {
		return false, err
	}
	if v.Kind != ValBool {
		return false, fmt.Errorf("policy: expression %s is not boolean (got %s)", expr, v)
	}
	return v.Bool, nil
}

// ReferencesPrefix reports whether the expression mentions any identifier
// path starting with prefix (e.g. "object."); used to detect predicate
// selectors in action arguments.
func ReferencesPrefix(expr Expr, prefix string) bool {
	switch e := expr.(type) {
	case *IdentExpr:
		return strings.HasPrefix(e.Path, prefix)
	case *UnaryExpr:
		return ReferencesPrefix(e.X, prefix)
	case *BinaryExpr:
		return ReferencesPrefix(e.Left, prefix) || ReferencesPrefix(e.Right, prefix)
	default:
		return false
	}
}
