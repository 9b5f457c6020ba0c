package resource

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if T(KindString).String() != "string" {
		t.Errorf("got %q", T(KindString).String())
	}
	if T(KindPort).String() != "tcp_port" {
		t.Errorf("got %q", T(KindPort).String())
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render something")
	}
}

func TestKindFromName(t *testing.T) {
	for _, name := range []string{"string", "int", "bool", "tcp_port", "secret", "struct", "list", "any"} {
		k, ok := KindFromName(name)
		if !ok {
			t.Fatalf("KindFromName(%q) failed", name)
		}
		if k.String() != name {
			t.Errorf("KindFromName(%q) = %v", name, k)
		}
	}
	if _, ok := KindFromName("float"); ok {
		t.Error("float should not resolve")
	}
	if _, ok := KindFromName("invalid"); ok {
		t.Error("invalid should not resolve")
	}
}

func TestAssignableScalar(t *testing.T) {
	cases := []struct {
		from, to Kind
		want     bool
	}{
		{KindString, KindString, true},
		{KindString, KindAny, true},
		{KindInt, KindPort, true},
		{KindPort, KindInt, true},
		{KindString, KindSecret, true},
		{KindSecret, KindString, false},
		{KindBool, KindInt, false},
		{KindInt, KindString, false},
		{KindAny, KindString, false},
	}
	for _, c := range cases {
		if got := T(c.from).AssignableTo(T(c.to)); got != c.want {
			t.Errorf("%v assignable to %v = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestAssignableStruct(t *testing.T) {
	narrow := StructType(map[string]PortType{"host": T(KindString)})
	wide := StructType(map[string]PortType{"host": T(KindString), "port": T(KindPort)})
	if !wide.AssignableTo(narrow) {
		t.Error("wide struct should be assignable to narrow (width subtyping)")
	}
	if narrow.AssignableTo(wide) {
		t.Error("narrow struct should not be assignable to wide")
	}
	badField := StructType(map[string]PortType{"host": T(KindBool)})
	if badField.AssignableTo(narrow) {
		t.Error("field type mismatch should fail")
	}
}

func TestAssignableList(t *testing.T) {
	ls := ListType(T(KindString))
	li := ListType(T(KindInt))
	if !ls.AssignableTo(ls) {
		t.Error("list[string] to itself")
	}
	if ls.AssignableTo(li) {
		t.Error("list[string] to list[int] should fail")
	}
	if !ls.AssignableTo(ListType(T(KindAny))) {
		t.Error("list[string] to list[any] should hold")
	}
}

func TestValueConstructorsAndType(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Str("x"), KindString},
		{IntV(3), KindInt},
		{PortV(3306), KindPort},
		{BoolV(true), KindBool},
		{SecretV("pw"), KindSecret},
		{StructV(map[string]Value{"a": IntV(1)}), KindStruct},
		{ListV(Str("a")), KindList},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("constructor kind = %v, want %v", c.v.Kind, c.kind)
		}
		if c.v.Type().Kind != c.kind {
			t.Errorf("Type().Kind = %v, want %v", c.v.Type().Kind, c.kind)
		}
	}
}

func TestValueEqual(t *testing.T) {
	a := StructV(map[string]Value{"host": Str("localhost"), "port": PortV(3306)})
	b := StructV(map[string]Value{"host": Str("localhost"), "port": PortV(3306)})
	c := StructV(map[string]Value{"host": Str("otherhost"), "port": PortV(3306)})
	if !a.Equal(b) {
		t.Error("identical structs should be equal")
	}
	if a.Equal(c) {
		t.Error("different structs should not be equal")
	}
	if Str("x").Equal(IntV(1)) {
		t.Error("different kinds should not be equal")
	}
	if !ListV(IntV(1), IntV(2)).Equal(ListV(IntV(1), IntV(2))) {
		t.Error("equal lists")
	}
	if ListV(IntV(1)).Equal(ListV(IntV(2))) {
		t.Error("unequal lists")
	}
}

func TestSecretRedaction(t *testing.T) {
	s := SecretV("hunter2")
	if strings.Contains(s.String(), "hunter2") {
		t.Error("String() must redact secrets")
	}
	if !strings.Contains(s.Reveal(), "hunter2") {
		t.Error("Reveal() must expose secrets")
	}
	nested := StructV(map[string]Value{"password": SecretV("hunter2")})
	if strings.Contains(nested.String(), "hunter2") {
		t.Error("nested secrets must be redacted by String()")
	}
}

func TestValueString(t *testing.T) {
	v := StructV(map[string]Value{"b": IntV(2), "a": Str("x")})
	got := v.String()
	want := `{a="x", b=2}`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if ListV(IntV(1), BoolV(true)).String() != "[1, true]" {
		t.Errorf("list String() = %s", ListV(IntV(1), BoolV(true)).String())
	}
}

func TestAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Str("abc"), "abc"},
		{SecretV("pw"), "pw"},
		{IntV(42), "42"},
		{PortV(8080), "8080"},
		{BoolV(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("AsString(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestValueField(t *testing.T) {
	v := StructV(map[string]Value{"port": PortV(3306)})
	f, ok := v.Field("port")
	if !ok || f.Int != 3306 {
		t.Error("Field lookup failed")
	}
	if _, ok := v.Field("missing"); ok {
		t.Error("missing field should not resolve")
	}
	if _, ok := Str("x").Field("y"); ok {
		t.Error("Field on non-struct should fail")
	}
}

// Property: Equal is reflexive and AssignableTo is reflexive on
// arbitrary scalar values/types.
func TestValueProperties(t *testing.T) {
	scalarOf := func(sel uint8, n int, s string) Value {
		switch sel % 5 {
		case 0:
			return Str(s)
		case 1:
			return IntV(n)
		case 2:
			return PortV(n & 0xffff)
		case 3:
			return BoolV(n%2 == 0)
		default:
			return SecretV(s)
		}
	}
	refl := func(sel uint8, n int, s string) bool {
		v := scalarOf(sel, n, s)
		return v.Equal(v) && v.Type().AssignableTo(v.Type())
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	// Equality is symmetric.
	sym := func(s1, s2 uint8, n1, n2 int, str1, str2 string) bool {
		a, b := scalarOf(s1, n1, str1), scalarOf(s2, n2, str2)
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
}

// TestValueAssignableToMatchesType: a value is assignable to a port
// type exactly when its computed type is, over every pairing of a set
// of values and port types that covers each kind, widening, width and
// depth subtyping of structs, and empty and typed lists.
func TestValueAssignableToMatchesType(t *testing.T) {
	host := StructV(map[string]Value{"host": Str("h"), "port": PortV(80)})
	vals := []Value{
		Str("s"), SecretV("x"), IntV(1), PortV(8080), BoolV(true), {},
		StructV(nil), host,
		StructV(map[string]Value{"host": IntV(1)}),
		StructV(map[string]Value{"db": host}),
		ListV(), ListV(Str("a")), ListV(IntV(1), Str("b")), ListV(host), ListV(ListV(PortV(1))),
	}
	str, port := T(KindString), T(KindPort)
	types := []PortType{
		T(KindString), T(KindSecret), T(KindInt), T(KindPort), T(KindBool), T(KindAny), T(KindInvalid),
		StructType(nil),
		StructType(map[string]PortType{"host": str}),
		StructType(map[string]PortType{"host": str, "port": T(KindInt)}),
		StructType(map[string]PortType{"host": str, "user": str}),
		StructType(map[string]PortType{"db": StructType(map[string]PortType{"port": port})}),
		{Kind: KindList}, ListType(str), ListType(T(KindSecret)), ListType(T(KindAny)),
		ListType(StructType(map[string]PortType{"port": T(KindInt)})), ListType(ListType(T(KindInt))),
	}
	for _, v := range vals {
		for _, u := range types {
			if got, want := v.AssignableTo(u), v.Type().AssignableTo(u); got != want {
				t.Errorf("%v to %v: AssignableTo %v, Type().AssignableTo %v", v, u, got, want)
			}
		}
	}
}
