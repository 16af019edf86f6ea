// Package params holds the one Registry behind the protocol and adversary
// registries and gives it a typed, machine-readable parameter surface. An
// entry pairs a configured default instance (a plain struct such as
// gossip.SEARS or core.UGF) with a Schema per exported field; the job API
// uses the schemas to validate a submitted spec's parameters — rejecting
// unknown names, non-integral values for integer fields, and out-of-bounds
// values with a structured error instead of a 500 — and the spec
// canonicalizer uses Diff/Apply to turn a concrete instance into its
// minimal parameter map and back.
//
// All parameter values travel as float64 (the JSON number type): integer
// and Step-valued fields must hold integral values, booleans are 0 or 1.
// Every field of every registered protocol and adversary is numeric or
// boolean today, which is what licenses the uniform encoding; a future
// string-valued field would need a schema extension, bumping the spec
// version.
package params

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// Kind classifies a parameter's value domain.
type Kind int

// Parameter kinds.
const (
	// Float accepts any finite value.
	Float Kind = iota
	// Int accepts integral values only (the field is int/int64/sim.Step).
	Int
	// Bool accepts 0 (false) and 1 (true).
	Bool
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Schema describes one parameter of a registry entry.
type Schema struct {
	// Name is the parameter's wire name: the struct field name lowercased
	// ("windowscale", "fixedk").
	Name string `json:"name"`
	// Kind is the value domain.
	Kind Kind `json:"kind"`
	// Default is the value the registry's configured instance carries; a
	// spec that omits the parameter gets this value.
	Default float64 `json:"default"`
	// Min and Max bound accepted values inclusively. Min > Max means
	// unbounded.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Bounded reports whether the schema constrains its values.
func (s Schema) Bounded() bool { return s.Min <= s.Max }

// Error is a structured parameter-validation failure: which parameter,
// and why. The job API serializes it into 400 responses.
type Error struct {
	// Param is the offending parameter name ("" when the failure is not
	// attributable to one parameter).
	Param string
	// Msg describes the failure.
	Msg string
}

func (e *Error) Error() string {
	if e.Param == "" {
		return "params: " + e.Msg
	}
	return fmt.Sprintf("params: %s: %s", e.Param, e.Msg)
}

// Bounds is an optional per-parameter [min, max] override table passed to
// Describe, keyed by wire name.
type Bounds map[string][2]float64

// Unbounded is the Min > Max sentinel pair of an unconstrained schema.
var unbounded = [2]float64{1, 0}

// Describe derives the parameter schemas of a registered instance by
// reflection over its exported fields: one Schema per field, named by the
// lowercased field name, defaulting to the field's value in the instance.
// bounds overrides the per-parameter range (absent entries are unbounded,
// except Bool parameters, which are always [0, 1]). A nil instance — the
// adversary registry's "none" — has no parameters. Describe panics on
// field types outside the numeric/bool encoding — registries are static,
// so the panic fires at init, not in request handling.
func Describe(instance any, bounds Bounds) []Schema {
	if instance == nil {
		return nil
	}
	v := reflect.ValueOf(instance)
	if v.Kind() != reflect.Struct {
		panic(fmt.Sprintf("params: Describe wants a struct, got %T", instance))
	}
	t := v.Type()
	var out []Schema
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := strings.ToLower(f.Name)
		kind, def, ok := encode(v.Field(i))
		if !ok {
			panic(fmt.Sprintf("params: %T.%s: unsupported parameter type %s", instance, f.Name, f.Type))
		}
		s := Schema{Name: name, Kind: kind, Default: def, Min: unbounded[0], Max: unbounded[1]}
		if kind == Bool {
			s.Min, s.Max = 0, 1
		}
		if b, ok := bounds[name]; ok {
			s.Min, s.Max = b[0], b[1]
		}
		out = append(out, s)
	}
	return out
}

// encode reads one struct field as (kind, float64 value).
func encode(v reflect.Value) (Kind, float64, bool) {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		return Float, v.Float(), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return Int, float64(v.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return Int, float64(v.Uint()), true
	case reflect.Bool:
		val := 0.0
		if v.Bool() {
			val = 1
		}
		return Bool, val, true
	default:
		return 0, 0, false
	}
}

// Diff returns the parameters on which v differs from base, as absolute
// values keyed by wire name. v and base must share a dynamic struct type.
// The result is the minimal parameter map that Apply(base, …) needs to
// rebuild v.
func Diff(v, base any) map[string]float64 {
	rv, rb := reflect.ValueOf(v), reflect.ValueOf(base)
	if rv.Type() != rb.Type() {
		panic(fmt.Sprintf("params: Diff type mismatch: %T vs %T", v, base))
	}
	t := rv.Type()
	var out map[string]float64
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		_, vv, ok := encode(rv.Field(i))
		if !ok {
			continue
		}
		_, bv, _ := encode(rb.Field(i))
		if vv != bv {
			if out == nil {
				out = map[string]float64{}
			}
			out[strings.ToLower(t.Field(i).Name)] = vv
		}
	}
	return out
}

// Apply returns a copy of base with the given parameters set, validated
// against the schemas: unknown names, NaN/Inf values, kind mismatches
// (fractional value for an Int parameter, non-0/1 for a Bool), and
// out-of-bounds values all return a *Error. Parameters absent from p keep
// base's values.
func Apply(base any, p map[string]float64, schemas []Schema) (any, error) {
	rb := reflect.ValueOf(base)
	out := reflect.New(rb.Type()).Elem()
	out.Set(rb)
	// Validate in sorted order so the first error is deterministic.
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		val := p[name]
		i := slices.IndexFunc(schemas, func(s Schema) bool { return s.Name == name })
		if i < 0 {
			return nil, &Error{Param: name, Msg: fmt.Sprintf("unknown parameter (have %s)", strings.Join(Names(schemas), ", "))}
		}
		schema := schemas[i]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, &Error{Param: name, Msg: fmt.Sprintf("value %v is not finite", val)}
		}
		switch schema.Kind {
		case Int:
			if val != math.Trunc(val) {
				return nil, &Error{Param: name, Msg: fmt.Sprintf("value %v is not an integer (%s parameter)", val, schema.Kind)}
			}
		case Bool:
			if val != 0 && val != 1 {
				return nil, &Error{Param: name, Msg: fmt.Sprintf("value %v is not a bool (want 0 or 1)", val)}
			}
		}
		if schema.Bounded() && (val < schema.Min || val > schema.Max) {
			return nil, &Error{Param: name, Msg: fmt.Sprintf("value %v outside [%v, %v]", val, schema.Min, schema.Max)}
		}
		setEncoded(out.FieldByNameFunc(func(f string) bool { return strings.ToLower(f) == name }), val)
	}
	return out.Interface(), nil
}

// setEncoded writes a float64-encoded value into a struct field.
func setEncoded(field reflect.Value, val float64) {
	switch field.Kind() {
	case reflect.Float64, reflect.Float32:
		field.SetFloat(val)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		field.SetInt(int64(val))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		field.SetUint(uint64(val))
	case reflect.Bool:
		field.SetBool(val != 0)
	}
}

// Names lists the schema names in declaration order.
func Names(schemas []Schema) []string {
	out := make([]string, len(schemas))
	for i, s := range schemas {
		out[i] = s.Name
	}
	return out
}
