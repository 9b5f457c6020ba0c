// Package resource implements Engage's fundamental abstraction: the
// resource. A resource type (§3.1 of the paper) models how a software or
// hardware component may be instantiated — its key, its input /
// configuration / output ports, and its inside / environment / peer
// dependencies. Resource types support abstraction and subtyping (§3.2,
// Fig. 4). Resource instances live in package spec.
package resource

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the base types over which ports are defined. The paper
// leaves the set of base types unspecified; we provide the ones needed
// by the case studies plus a top type Any used by generic resources.
type Kind int

// Base type kinds.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindBool
	KindPort   // a TCP/UDP port number
	KindSecret // a string that must not be logged
	KindStruct // a structure with named fields (§3.4 syntactic sugar)
	KindList   // a list of values (used for package lists)
	KindAny    // top of the base-type lattice
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid",
	KindString:  "string",
	KindInt:     "int",
	KindBool:    "bool",
	KindPort:    "tcp_port",
	KindSecret:  "secret",
	KindStruct:  "struct",
	KindList:    "list",
	KindAny:     "any",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromName resolves a base type name from the RDL surface syntax.
func KindFromName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s && k != KindInvalid {
			return k, true
		}
	}
	return KindInvalid, false
}

// PortType is the type of a port: a base kind, plus field types when the
// kind is KindStruct and an element type when the kind is KindList.
type PortType struct {
	Kind   Kind
	Fields map[string]PortType // for KindStruct
	Elem   *PortType           // for KindList
}

// T is shorthand for a scalar port type.
func T(k Kind) PortType { return PortType{Kind: k} }

// StructType builds a struct port type from field name/type pairs.
func StructType(fields map[string]PortType) PortType {
	return PortType{Kind: KindStruct, Fields: fields}
}

// ListType builds a list port type with the given element type.
func ListType(elem PortType) PortType {
	return PortType{Kind: KindList, Elem: &elem}
}

// String renders the port type.
func (t PortType) String() string {
	switch t.Kind {
	case KindStruct:
		names := make([]string, 0, len(t.Fields))
		for n := range t.Fields {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("struct{")
		for i, n := range names {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", n, t.Fields[n])
		}
		b.WriteString("}")
		return b.String()
	case KindList:
		if t.Elem == nil {
			return "list[any]"
		}
		return "list[" + t.Elem.String() + "]"
	default:
		return t.Kind.String()
	}
}

// AssignableTo reports whether a value of type t may flow into a port of
// type u. This is the base-type relation "≤" of Fig. 4. The lattice:
// every type is assignable to itself and to Any; KindPort and KindInt
// are mutually assignable (a port number is an int); KindString is
// assignable to KindSecret (you may store a plain string in a secret
// port, not vice versa). Structs are width- and depth-compatible.
func (t PortType) AssignableTo(u PortType) bool {
	if u.Kind == KindAny {
		return true
	}
	switch {
	case t.Kind == u.Kind:
	case t.Kind == KindPort && u.Kind == KindInt,
		t.Kind == KindInt && u.Kind == KindPort:
	case t.Kind == KindString && u.Kind == KindSecret:
	default:
		return false
	}
	switch u.Kind {
	case KindStruct:
		// Width subtyping: t must provide every field u requires.
		for name, ft := range u.Fields {
			st, ok := t.Fields[name]
			if !ok || !st.AssignableTo(ft) {
				return false
			}
		}
	case KindList:
		// A nil element type means "unknown" (e.g., the type of an
		// empty list value) and is compatible with any element type.
		if u.Elem != nil && t.Elem != nil && !t.Elem.AssignableTo(*u.Elem) {
			return false
		}
	}
	return true
}

// Value is a runtime configuration value carried on a port.
type Value struct {
	Kind   Kind
	Str    string           // KindString, KindSecret
	Int    int              // KindInt, KindPort
	Bool   bool             // KindBool
	Fields map[string]Value // KindStruct
	List   []Value          // KindList
}

// Convenience constructors.

// Str builds a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Int builds an int value.
func IntV(n int) Value { return Value{Kind: KindInt, Int: n} }

// PortV builds a TCP port value.
func PortV(n int) Value { return Value{Kind: KindPort, Int: n} }

// BoolV builds a bool value.
func BoolV(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// SecretV builds a secret string value.
func SecretV(s string) Value { return Value{Kind: KindSecret, Str: s} }

// StructV builds a struct value.
func StructV(fields map[string]Value) Value {
	return Value{Kind: KindStruct, Fields: fields}
}

// ListV builds a list value.
func ListV(elems ...Value) Value { return Value{Kind: KindList, List: elems} }

// Type computes the port type of the value.
func (v Value) Type() PortType {
	switch v.Kind {
	case KindStruct:
		fs := make(map[string]PortType, len(v.Fields))
		for n, f := range v.Fields {
			fs[n] = f.Type()
		}
		return PortType{Kind: KindStruct, Fields: fs}
	case KindList:
		var elem *PortType
		if len(v.List) > 0 {
			t := v.List[0].Type()
			elem = &t
		}
		return PortType{Kind: KindList, Elem: elem}
	default:
		return PortType{Kind: v.Kind}
	}
}

// AssignableTo reports whether v may flow into a port of type u:
// v.Type().AssignableTo(u), without building v's type.
func (v Value) AssignableTo(u PortType) bool {
	if u.Kind == KindAny {
		return true
	}
	switch {
	case v.Kind == u.Kind:
	case v.Kind == KindPort && u.Kind == KindInt,
		v.Kind == KindInt && u.Kind == KindPort:
	case v.Kind == KindString && u.Kind == KindSecret:
	default:
		return false
	}
	switch u.Kind {
	case KindStruct:
		for name, ft := range u.Fields {
			f, ok := v.Fields[name]
			if !ok || !f.AssignableTo(ft) {
				return false
			}
		}
	case KindList:
		// A list's type is its first element's; an empty list's is
		// unknown and fits any element type.
		if u.Elem != nil && len(v.List) > 0 && !v.List[0].AssignableTo(*u.Elem) {
			return false
		}
	}
	return true
}

// Field returns the named field of a struct value.
func (v Value) Field(name string) (Value, bool) {
	if v.Kind != KindStruct {
		return Value{}, false
	}
	f, ok := v.Fields[name]
	return f, ok
}

// Equal reports deep equality of two values.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindString, KindSecret:
		return v.Str == w.Str
	case KindInt, KindPort:
		return v.Int == w.Int
	case KindBool:
		return v.Bool == w.Bool
	case KindStruct:
		if len(v.Fields) != len(w.Fields) {
			return false
		}
		for n, f := range v.Fields {
			g, ok := w.Fields[n]
			if !ok || !f.Equal(g) {
				return false
			}
		}
		return true
	case KindList:
		if len(v.List) != len(w.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(w.List[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the value; secrets are redacted.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return strconv.Quote(v.Str)
	case KindSecret:
		return `"<redacted>"`
	case KindInt, KindPort:
		return strconv.Itoa(v.Int)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindStruct:
		names := make([]string, 0, len(v.Fields))
		for n := range v.Fields {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteByte('{')
		for i, n := range names {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", n, v.Fields[n])
		}
		b.WriteByte('}')
		return b.String()
	case KindList:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	default:
		return "<invalid>"
	}
}

// Reveal renders the value including secret contents; for writing
// configuration files on the simulated machines.
func (v Value) Reveal() string {
	if v.Kind == KindSecret {
		return strconv.Quote(v.Str)
	}
	return v.String()
}

// AsString extracts a string-ish payload: the string of a string or
// secret, the decimal form of an int or port, "true"/"false" for bools.
func (v Value) AsString() string {
	switch v.Kind {
	case KindString, KindSecret:
		return v.Str
	case KindInt, KindPort:
		return strconv.Itoa(v.Int)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return v.String()
	}
}
