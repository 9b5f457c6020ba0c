package spec

// The writer is held to encoding/json byte for byte. The oracle is the
// intermediate form specifications were once marshalled through —
// per-instance structs and map[string]any value trees — handed to
// json.Marshal and json.MarshalIndent.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"engage/internal/resource"
)

func oracleValue(v resource.Value) any {
	switch v.Kind {
	case resource.KindString:
		return v.Str
	case resource.KindSecret:
		return map[string]any{"__secret__": v.Str}
	case resource.KindInt, resource.KindPort:
		return v.Int
	case resource.KindBool:
		return v.Bool
	case resource.KindStruct:
		m := make(map[string]any, len(v.Fields))
		for n, f := range v.Fields {
			m[n] = oracleValue(f)
		}
		return m
	case resource.KindList:
		l := make([]any, len(v.List))
		for i, e := range v.List {
			l[i] = oracleValue(e)
		}
		return l
	default:
		return nil
	}
}

func oracleValues(m map[string]resource.Value) map[string]any {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]any, len(m))
	for n, v := range m {
		out[n] = oracleValue(v)
	}
	return out
}

type oraclePartialInstance struct {
	ID     string         `json:"id"`
	Key    string         `json:"key"`
	Inside *linkJSON      `json:"inside,omitempty"`
	Config map[string]any `json:"config_port,omitempty"`
}

type oracleDepLink struct {
	Class          string            `json:"class"`
	Target         string            `json:"id"`
	PortMap        map[string]string `json:"port_map,omitempty"`
	ReversePortMap map[string]string `json:"reverse_port_map,omitempty"`
}

type oracleInstance struct {
	ID      string          `json:"id"`
	Key     string          `json:"key"`
	Machine string          `json:"machine,omitempty"`
	Inside  *linkJSON       `json:"inside,omitempty"`
	Config  map[string]any  `json:"config_port,omitempty"`
	Input   map[string]any  `json:"input_ports,omitempty"`
	Output  map[string]any  `json:"output_ports,omitempty"`
	Deps    []oracleDepLink `json:"dependencies,omitempty"`
}

func oracleLink(id string) *linkJSON {
	if id == "" {
		return nil
	}
	return &linkJSON{ID: id}
}

// OraclePartial is p in the form encoding/json marshals.
func OraclePartial(p *Partial) any {
	if p == nil {
		return nil
	}
	out := make([]oraclePartialInstance, len(p.Instances))
	for i, inst := range p.Instances {
		out[i] = oraclePartialInstance{inst.ID, inst.Key.String(), oracleLink(inst.Inside), oracleValues(inst.Config)}
	}
	return out
}

// OracleFull is f in the form encoding/json marshals.
func OracleFull(f *Full) any {
	if f == nil {
		return nil
	}
	out := make([]oracleInstance, len(f.Instances))
	for i, inst := range f.Instances {
		oi := oracleInstance{
			ID:      inst.ID,
			Key:     inst.Key.String(),
			Machine: inst.Machine,
			Inside:  oracleLink(inst.Inside),
			Config:  oracleValues(inst.Config),
			Input:   oracleValues(inst.Input),
			Output:  oracleValues(inst.Output),
		}
		for _, d := range inst.Deps {
			oi.Deps = append(oi.Deps, oracleDepLink{d.Class.String(), d.Target, d.PortMap, d.ReversePortMap})
		}
		out[i] = oi
	}
	return out
}

// Indents are the (prefix, indent) pairs the writer is held to.
var Indents = [][2]string{{"", ""}, {"", "  "}, {"  ", "  "}, {"\t", "\t"}}

// CheckWriter holds the writer on d to encoding/json on oracle, compact
// and at every pair of Indents.
func CheckWriter(t testing.TB, name string, d Document, oracle any) {
	t.Helper()
	want, err := json.Marshal(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got := Marshal(d); !bytes.Equal(got, want) {
		t.Fatalf("%s compact:\n%s\nwant\n%s", name, got, want)
	}
	for _, pi := range Indents {
		want, err := json.MarshalIndent(oracle, pi[0], pi[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := MarshalIndent(d, pi[0], pi[1]); !bytes.Equal(got, want) {
			t.Fatalf("%s indented %q %q:\n%s\nwant\n%s", name, pi[0], pi[1], got, want)
		}
	}
}

// gen builds specifications from fuzz input, one decision per byte; an
// exhausted input reads as zeros.
type gen struct{ b []byte }

func (g *gen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// pieces are what a string is made of, besides raw high bytes.
var pieces = []string{
	"a", "Z", "0", " ", "-", "<", ">", "&", `"`, `\`, "/", "\x00", "\x1f",
	"\b", "\f", "\n", "\r", "\t", "\x7f", "é", "€", "\U0001F600",
	"\u2028", "\u2029", "\ufffd", "\xe2\x80", "\xed\xa0\x80",
}

// str is a string of up to seven pieces; a byte with the high bit set
// is written raw, so halves of runes and invalid UTF-8 appear.
func (g *gen) str() string {
	var b []byte
	for n := g.next() % 8; n > 0; n-- {
		if c := g.next(); c >= 0x80 {
			b = append(b, c)
		} else {
			b = append(b, pieces[int(c)%len(pieces)]...)
		}
	}
	return string(b)
}

func (g *gen) value(depth int) resource.Value {
	kind := g.next() % 9
	if depth > 3 && (kind == 5 || kind == 6) {
		kind = 0
	}
	switch kind {
	case 0:
		return resource.Str(g.str())
	case 1:
		return resource.SecretV(g.str())
	case 2:
		return resource.IntV(int(int8(g.next())) * int(g.next()) * 1000003)
	case 3:
		return resource.PortV(int(g.next()) << 8)
	case 4:
		return resource.BoolV(g.next()&1 == 1)
	case 5:
		return resource.StructV(g.values(depth + 1))
	case 6:
		var l []resource.Value
		if g.next()&1 == 1 {
			l = []resource.Value{}
		}
		for n := g.next() % 4; n > 0; n-- {
			l = append(l, g.value(depth+1))
		}
		return resource.ListV(l...)
	case 7:
		return resource.Value{Kind: resource.KindAny}
	default:
		return resource.Value{}
	}
}

// values is nil, empty, or one or two named values.
func (g *gen) values(depth int) map[string]resource.Value {
	c := g.next()
	if c%4 == 0 {
		return nil
	}
	m := map[string]resource.Value{}
	for n := c % 4; n > 1; n-- {
		m[g.str()] = g.value(depth)
	}
	return m
}

func (g *gen) portMap() map[string]string {
	c := g.next()
	if c%4 == 0 {
		return nil
	}
	m := map[string]string{}
	for n := c % 4; n > 1; n-- {
		m[g.str()] = g.str()
	}
	return m
}

func (g *gen) key() resource.Key {
	k := resource.Key{Name: g.str()}
	if g.next()&1 == 1 {
		k.Version = g.str()
	}
	return k
}

func (g *gen) full() *Full {
	if g.next()%16 == 15 {
		return nil
	}
	f := &Full{}
	for n := g.next() % 4; n > 0; n-- {
		inst := &Instance{ID: g.str(), Key: g.key(), Machine: g.str(), Inside: g.str()}
		inst.Config, inst.Input, inst.Output = g.values(0), g.values(0), g.values(0)
		for d := g.next() % 3; d > 0; d-- {
			inst.Deps = append(inst.Deps, DepLink{
				Class:          resource.DependencyClass(g.next() % 4),
				Target:         g.str(),
				PortMap:        g.portMap(),
				ReversePortMap: g.portMap(),
			})
		}
		f.Instances = append(f.Instances, inst)
	}
	return f
}

// partialOf is the partial f's instances would be given as.
func partialOf(f *Full) *Partial {
	if f == nil {
		return nil
	}
	p := &Partial{}
	for _, inst := range f.Instances {
		p.Instances = append(p.Instances, &PartialInstance{ID: inst.ID, Key: inst.Key, Inside: inst.Inside, Config: inst.Config})
	}
	return p
}

// valueDoc is one value as a document.
type valueDoc struct{ v resource.Value }

func (d valueDoc) Encode(w *Writer) { w.Value(d.v) }

func FuzzWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x05<a>&\x02\xe2\x80\xa8\x01\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{b: data}
		full := g.full()
		CheckWriter(t, "full", full, OracleFull(full))
		CheckWriter(t, "partial", partialOf(full), OraclePartial(partialOf(full)))
		v := g.value(0)
		CheckWriter(t, "value", valueDoc{v}, oracleValue(v))
	})
}

// TestWriterHostileValues runs the oracle on the values escaping and
// emptiness turn on, each alone and nested.
func TestWriterHostileValues(t *testing.T) {
	var vals []resource.Value
	for _, s := range append(pieces, "", "<script>&amp;</script>", "\xff\xfe", "a\u2028b\u2029c") {
		vals = append(vals, resource.Str(s), resource.SecretV(s))
	}
	vals = append(vals,
		resource.IntV(0), resource.IntV(-1), resource.IntV(1<<62), resource.PortV(65535),
		resource.BoolV(true), resource.BoolV(false),
		resource.StructV(nil), resource.StructV(map[string]resource.Value{}),
		resource.ListV(), resource.ListV([]resource.Value{}...),
		resource.Value{}, resource.Value{Kind: resource.KindAny},
	)
	nested := map[string]resource.Value{}
	for i, v := range vals {
		CheckWriter(t, fmt.Sprintf("value %d", i), valueDoc{v}, oracleValue(v))
		nested[fmt.Sprintf("<%d>", i)] = v
	}
	deep := resource.StructV(map[string]resource.Value{
		"list":   resource.ListV(resource.StructV(nested), resource.ListV(vals...), resource.ListV()),
		"struct": resource.StructV(nested),
		"":       resource.StructV(map[string]resource.Value{"": resource.ListV()}),
	})
	CheckWriter(t, "deep", valueDoc{deep}, oracleValue(deep))

	full := &Full{Instances: []*Instance{
		{ID: "m<1>", Key: resource.MakeKey("Mac&OSX", "10.6")},
		{ID: "a", Key: resource.Key{Name: "\xe2\x80", Version: "\xa8x"}, Machine: "m<1>", Inside: "m<1>",
			Config: nested, Input: map[string]resource.Value{}, Output: map[string]resource.Value{"deep": deep},
			Deps: []DepLink{
				{Class: resource.DepInside, Target: "m<1>"},
				{Class: resource.DepPeer, Target: "b", PortMap: map[string]string{}, ReversePortMap: map[string]string{"x\u2029": "<y>"}},
				{Class: resource.DependencyClass(9), Target: ""},
			}},
		{ID: "", Deps: []DepLink{}},
	}}
	CheckWriter(t, "full", full, OracleFull(full))
	CheckWriter(t, "partial", partialOf(full), OraclePartial(partialOf(full)))
	CheckWriter(t, "empty full", &Full{}, OracleFull(&Full{}))
	CheckWriter(t, "nil full", (*Full)(nil), OracleFull(nil))
	CheckWriter(t, "nil partial", (*Partial)(nil), OraclePartial(nil))
}

// TestWriterRoundTrip decodes what the writer wrote back to the same
// specification.
func TestWriterRoundTrip(t *testing.T) {
	f := &Full{Instances: []*Instance{
		{ID: "m", Key: resource.MakeKey("Mac-OSX", "10.6"), Config: map[string]resource.Value{"host": resource.Str("<h>")}},
		{ID: "a", Key: resource.MakeKey("App", "1"), Machine: "m", Inside: "m",
			Config: map[string]resource.Value{"s": resource.SecretV("pw&"), "l": resource.ListV(resource.IntV(1))},
			Deps:   []DepLink{{Class: resource.DepEnv, Target: "m", PortMap: map[string]string{"a": "b"}}}},
	}}
	var back Full
	if err := json.Unmarshal(Marshal(f), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(&back), Marshal(f)) {
		t.Fatalf("round trip:\n%s\nwant\n%s", Marshal(&back), Marshal(f))
	}
}

// TestWriterReusedBuffersStayApart: a copy handed out survives the
// writer that made it going back to the pool and being written again.
func TestWriterReusedBuffersStayApart(t *testing.T) {
	a := &Full{Instances: []*Instance{{ID: "a", Key: resource.MakeKey("A", "1")}}}
	b := &Full{Instances: []*Instance{{ID: "bbbbbbbb", Key: resource.MakeKey("B", "2")}}}
	first := MarshalIndent(a, "", "  ")
	keep := string(first)
	for range 10 {
		MarshalIndent(b, "", "  ")
	}
	if string(first) != keep {
		t.Fatalf("a released buffer changed a returned copy: %s", first)
	}
}
