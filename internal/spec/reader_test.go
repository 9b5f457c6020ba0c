package spec

// The reader is held to the decoding path it replaced: per-instance
// structs and map[string]any value trees filled by encoding/json, then
// converted. That path is kept here, as it was, as the oracle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"engage/internal/resource"
)

type partialInstanceJSON struct {
	ID     string         `json:"id"`
	Key    string         `json:"key"`
	Inside *linkJSON      `json:"inside"`
	Config map[string]any `json:"config_port"`
}

type linkJSON struct {
	ID string `json:"id"`
}

type depLinkJSON struct {
	Class          string            `json:"class"`
	Target         string            `json:"id"`
	PortMap        map[string]string `json:"port_map"`
	ReversePortMap map[string]string `json:"reverse_port_map"`
}

type instanceJSON struct {
	ID      string         `json:"id"`
	Key     string         `json:"key"`
	Machine string         `json:"machine"`
	Inside  *linkJSON      `json:"inside"`
	Config  map[string]any `json:"config_port"`
	Input   map[string]any `json:"input_ports"`
	Output  map[string]any `json:"output_ports"`
	Deps    []depLinkJSON  `json:"dependencies"`
}

// oracleUnmarshalPartial is what Partial.UnmarshalJSON did before the
// reader.
func oracleUnmarshalPartial(p *Partial, data []byte) error {
	var raw []partialInstanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	p.Instances = nil
	for _, r := range raw {
		if r.ID == "" {
			return fmt.Errorf("spec: instance with empty id")
		}
		cfg, err := valuesFromJSON(r.Config)
		if err != nil {
			return fmt.Errorf("spec: instance %q: %v", r.ID, err)
		}
		inst := &PartialInstance{
			ID:     r.ID,
			Key:    resource.ParseKey(r.Key),
			Config: cfg,
		}
		if r.Inside != nil {
			inst.Inside = r.Inside.ID
		}
		p.Instances = append(p.Instances, inst)
	}
	return nil
}

// oracleUnmarshalFull is what Full.UnmarshalJSON did before the reader.
func oracleUnmarshalFull(f *Full, data []byte) error {
	var raw []instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	f.Instances = nil
	for _, r := range raw {
		cfg, err := valuesFromJSON(r.Config)
		if err != nil {
			return fmt.Errorf("spec: instance %q config: %v", r.ID, err)
		}
		in, err := valuesFromJSON(r.Input)
		if err != nil {
			return fmt.Errorf("spec: instance %q input: %v", r.ID, err)
		}
		out, err := valuesFromJSON(r.Output)
		if err != nil {
			return fmt.Errorf("spec: instance %q output: %v", r.ID, err)
		}
		inst := &Instance{
			ID:      r.ID,
			Key:     resource.ParseKey(r.Key),
			Machine: r.Machine,
			Config:  cfg,
			Input:   in,
			Output:  out,
		}
		if r.Inside != nil {
			inst.Inside = r.Inside.ID
		}
		for _, d := range r.Deps {
			var class resource.DependencyClass
			switch d.Class {
			case "inside":
				class = resource.DepInside
			case "environment":
				class = resource.DepEnv
			case "peer":
				class = resource.DepPeer
			default:
				return fmt.Errorf("spec: instance %q: unknown dependency class %q", r.ID, d.Class)
			}
			inst.Deps = append(inst.Deps, DepLink{
				Class:          class,
				Target:         d.Target,
				PortMap:        d.PortMap,
				ReversePortMap: d.ReversePortMap,
			})
		}
		f.Instances = append(f.Instances, inst)
	}
	return nil
}

// valueFromJSON converts a decoded JSON tree back to a resource.Value.
func valueFromJSON(x any) (resource.Value, error) {
	switch t := x.(type) {
	case string:
		return resource.Str(t), nil
	case bool:
		return resource.BoolV(t), nil
	case float64:
		if t != math.Trunc(t) {
			return resource.Value{}, fmt.Errorf("non-integer number %v not supported", t)
		}
		return resource.IntV(int(t)), nil
	case map[string]any:
		if s, ok := t["__secret__"]; ok && len(t) == 1 {
			str, ok := s.(string)
			if !ok {
				return resource.Value{}, fmt.Errorf("__secret__ payload must be a string")
			}
			return resource.SecretV(str), nil
		}
		fields := make(map[string]resource.Value, len(t))
		for n, f := range t { //engage:maporder — builds a map; the first error wins, and any one rejects the document
			v, err := valueFromJSON(f)
			if err != nil {
				return resource.Value{}, fmt.Errorf("field %q: %v", n, err)
			}
			fields[n] = v
		}
		return resource.StructV(fields), nil
	case []any:
		elems := make([]resource.Value, len(t))
		for i, e := range t {
			v, err := valueFromJSON(e)
			if err != nil {
				return resource.Value{}, fmt.Errorf("element %d: %v", i, err)
			}
			elems[i] = v
		}
		return resource.ListV(elems...), nil
	case nil:
		return resource.Value{}, fmt.Errorf("null values not supported")
	default:
		return resource.Value{}, fmt.Errorf("unsupported JSON value %T", x)
	}
}

func valuesFromJSON(m map[string]any) (map[string]resource.Value, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[string]resource.Value, len(m))
	for n, x := range m { //engage:maporder — builds a map; the first error wins, and any one rejects the document
		v, err := valueFromJSON(x)
		if err != nil {
			return nil, fmt.Errorf("port %q: %v", n, err)
		}
		out[n] = v
	}
	return out, nil
}

// oracleError says whether the oracle's message for a rejected document
// is its own to compare: a bad value's message names whichever bad port
// map iteration met first, so only the rejection is compared there.
func oracleMessage(err error) bool {
	return !strings.Contains(err.Error(), ": port \"")
}

// CheckReader holds the reader to the oracle on data, read as a
// partial and as a full specification: both accept it, to deeply equal
// specifications that encode alike, or both reject it, with the same
// message where the oracle's is deterministic.
func CheckReader(t testing.TB, name string, data []byte) {
	t.Helper()
	var gotP, wantP Partial
	checkRead(t, name+" as a partial", &gotP, &wantP,
		gotP.UnmarshalJSON(data), oracleUnmarshalPartial(&wantP, data), data)
	var gotF, wantF Full
	checkRead(t, name+" as a full specification", &gotF, &wantF,
		gotF.UnmarshalJSON(data), oracleUnmarshalFull(&wantF, data), data)
}

func checkRead(t testing.TB, name string, got, want Document, gotErr, wantErr error, data []byte) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: reader error %v, oracle error %v\n%q", name, gotErr, wantErr, data)
	case wantErr != nil:
		if oracleMessage(wantErr) && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: reader says %q, oracle %q\n%q", name, gotErr, wantErr, data)
		}
	case !bytes.Equal(Marshal(got), Marshal(want)):
		t.Fatalf("%s: reader read\n%s\noracle\n%s", name, Marshal(got), Marshal(want))
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: reader read %#v, oracle %#v", name, got, want)
	}
}

// readerCases are documents for each rule the reader shares with
// encoding/json; testdata/fuzz/FuzzReader holds them as FuzzReader's
// seed corpus, one file each, named by their group below.
var readerCases = []string{
	// Fig. 2 shape, accepted.
	`[{"id":"server","key":"Mac-OSX 10.6"},{"id":"tomcat","key":"Tomcat 6.0.18","inside":{"id":"server"},"config_port":{"port":8080}}]`,
	// Member names match case-insensitively, exactly first; K and ſ fold.
	`[{"ID":"a","Key":"X 1","INSIDE":{"Id":"m"},"Config_Port":{"P":1,"p":2}}]`,
	`[{"id":"a","Key":"X 1","inſide":{"id":"m"}}]`,
	`[{"id":"a","key":"X 1"}]`,
	// The last duplicate wins; objects merge into a member that holds one.
	`[{"id":"a","id":"b","key":"X 1","key":"Y 2"}]`,
	`[{"id":"a","config_port":{"x":1},"config_port":{"y":2},"config_port":{"x":3}}]`,
	`[{"id":"a","inside":{"id":"m"},"inside":{}},{"id":"b","inside":{"id":"m"},"inside":null,"inside":{}}]`,
	`[{"id":"a","key":"X","dependencies":[{"class":"peer","id":"b","port_map":{"x":"y"}}],"dependencies":[{"id":"c","port_map":{"z":"w"}}]}]`,
	`[{"id":"a","dependencies":[{"class":"peer","id":"b"},{"class":"inside","id":"c"}],"dependencies":[{"class":"peer"}],"dependencies":[{"class":"peer"},{"id":"d"}]}]`,
	`[{"id":"a","dependencies":[{"class":"peer","id":"b"}],"dependencies":[],"dependencies":[{"id":"d"}]}]`,
	// Unknown members are skipped, whatever they hold.
	`[{"id":"a","extra":{"deep":[1,2,{"x":null}],"s":"é"},"more":[true,false,null,-1.5e-3]}]`,
	// null: a string stays, a map or pointer empties, a value is refused.
	`[{"id":"a","key":null,"inside":null,"config_port":null}]`,
	`[{"id":"a","config_port":{"x":null}}]`,
	`[{"id":"a","dependencies":null,"machine":null,"input_ports":null}]`,
	`[{"id":"a","key":"X","dependencies":[null]}]`,
	`[{"id":"a","key":"X","dependencies":[{"class":"peer","port_map":{"a":null},"reverse_port_map":null}]}]`,
	`null`,
	`[null]`,
	`[]`,
	// Numbers in values are integral; an integral float is an int.
	`[{"id":"a","config_port":{"i":-0,"j":1e3,"k":12345678901234567890,"l":1.0,"m":-9007199254740993}}]`,
	`[{"id":"a","config_port":{"x":1.5}}]`,
	`[{"id":"a","config_port":{"x":1e400}}]`,
	`[{"id":"a","config_port":{"x":1e-400,"y":5e-324}}]`,
	// __secret__ alone is a secret; beside another member, a field.
	`[{"id":"a","config_port":{"pw":{"__secret__":"s3cret"},"both":{"__secret__":"s","x":1},"dup":{"__secret__":"a","__secret__":"b"}}}]`,
	`[{"id":"a","config_port":{"pw":{"__secret__":1}}}]`,
	`[{"id":"a","config_port":{"pw":{"__secret__":[null]}}}]`,
	`[{"id":"a","config_port":{"pw":{"__secret__":null}}}]`,
	// Escapes, surrogate pairs, lone surrogates, invalid UTF-8.
	`[{"id":"a\"\\\/\b\f\n\r\tAé€","key":"😀 1","config_port":{"s":"\ud800","t":"\udc00x","u":"\ud800A","v":"\ud800𐀀"}}]`,
	"[{\"id\":\"\xff\xfe\",\"key\":\"\xe2\x80 \xed\xa0\x80\",\"config_port\":{\"\xc3\":\"\xe2\x80\xa8\"}}]",
	// Nested values, their first bad field and element.
	`[{"id":"a","config_port":{"s":{"a":[1,{"b":[]}],"c":{}},"l":[[],[1,"x",true]]}}]`,
	`[{"id":"a","config_port":{"s":{"a":null}}}]`,
	`[{"id":"a","config_port":{"l":[1,null,1.5]}}]`,
	// Semantic errors, in instance order.
	`[{"key":"X 1"}]`,
	`[{"id":""},{"id":5}]`,
	`[{"id":"a","key":"X","dependencies":[{"class":"sideways","id":"b"}]}]`,
	`[{"id":"a","key":"X","dependencies":[{"id":"b"}]}]`,
	// Type mismatches, named as encoding/json named them.
	`{"id":"a"}`,
	`"x"`,
	`5`,
	`true`,
	`[5]`,
	`[[]]`,
	`[{"id":5}]`,
	`[{"id":"a","key":true}]`,
	`[{"id":"a","inside":"m"}]`,
	`[{"id":"a","inside":{"id":[]}}]`,
	`[{"id":"a","config_port":[]}]`,
	`[{"id":"a","machine":{}}]`,
	`[{"id":"a","dependencies":{}}]`,
	`[{"id":"a","dependencies":["x"]}]`,
	`[{"id":"a","dependencies":[{"class":1}]}]`,
	`[{"id":"a","dependencies":[{"port_map":[]}]}]`,
	`[{"id":"a","dependencies":[{"port_map":{"x":1}}]}]`,
	`[{"id":"","config_port":{"x":null}},{"id":5}]`,
	// Syntax errors, anywhere, including after the value.
	``,
	` `,
	`[`,
	`[{"id":"a"`,
	`[{"id":"a",}]`,
	`[{"id":"a"}] x`,
	`[{"id":"a"}]{}`,
	`[1,]`,
	`[01]`,
	`[-]`,
	`[1.]`,
	`[1e]`,
	`[tru]`,
	`[nul]`,
	`["\x"]`,
	`["\u12"]`,
	"[\"a\x01\"]",
	`["abc`,
	"[{\"id\":\"a\"}]\x00",
	` [ ] `,
}

func TestReaderCases(t *testing.T) {
	for i, c := range readerCases {
		CheckReader(t, fmt.Sprintf("case %d", i), []byte(c))
	}
	deep := strings.Repeat("[", 10000) + strings.Repeat("]", 10000)
	CheckReader(t, "depth 10000", []byte(deep))
	CheckReader(t, "depth 10001", []byte("["+deep+"]"))
}

// TestReaderMessages pins messages clients see.
func TestReaderMessages(t *testing.T) {
	for doc, want := range map[string]string{
		`[{"id":"a","config_port":{"x":1.5}}]`:              `spec: instance "a": port "x": non-integer number 1.5 not supported`,
		`[{"key":"X 1"}]`:                                   `spec: instance with empty id`,
		`[{"id":5}]`:                                        `json: cannot unmarshal number into Go struct field partialInstanceJSON.id of type string`,
		`[{"id":"a","inside":{"id":[]}}]`:                   `json: cannot unmarshal array into Go struct field linkJSON.inside.id of type string`,
		`{"id":"a"}`:                                        `json: cannot unmarshal object into Go value of type []spec.partialInstanceJSON`,
		`[{"id":"a","config_port":{"x":1e400}}]`:            `json: cannot unmarshal number 1e400 into Go struct field partialInstanceJSON.config_port of type float64`,
		`[{"id":"a","config_port":{"p":{"__secret__":1}}}]`: `spec: instance "a": port "p": __secret__ payload must be a string`,
		`[{"id":"a"`:                                        `unexpected end of JSON input`,
		`[{"id":"a"}] x`:                                    `invalid character 'x' after top-level value`,
	} {
		var p Partial
		if err := p.UnmarshalJSON([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", doc, err, want)
		}
	}
	var f Full
	err := f.UnmarshalJSON([]byte(`[{"id":"a","dependencies":[{"port_map":{"x":1}}]}]`))
	if want := `json: cannot unmarshal number into Go struct field depLinkJSON.dependencies.port_map of type string`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}

// TestReaderFirstBadValue: a document with several bad values is
// rejected with its first in document order, every time. A full
// specification's instance is read across its config, input and output
// ports alike.
func TestReaderFirstBadValue(t *testing.T) {
	for _, c := range []struct{ doc, partial, full string }{
		{`[{"id":"a","config_port":{"x":1.5,"y":null,"z":[null]}}]`, `port "x": non-integer number 1.5 not supported`, ``},
		{`[{"id":"a","config_port":{"x":null,"y":1.5,"x":1}}]`, `port "y": non-integer number 1.5 not supported`, ``},
		{`[{"id":"a","config_port":{"x":1.5,"y":null,"x":[null]}}]`, `port "y": null values not supported`, ``},
		{`[{"id":"a","config_port":{"s":{"f":null,"g":1.5,"h":[null]}}}]`, `port "s": field "f": null values not supported`, ``},
		{`[{"id":"a","config_port":{"l":[1,{"a":null,"b":null},null]}}]`, `port "l": element 1: field "a": null values not supported`, ``},
		{`[{"id":"a","config_port":{"x":null},"config_port":null,"key":"K"}]`, ``, ``},
		{`[{"id":"a","input_ports":{"i":null},"config_port":{"c":1.5}}]`, `port "c": non-integer number 1.5 not supported`, `input: port "i": null values not supported`},
		{`[{"id":"a","output_ports":{"o":null},"config_port":{"c":null,"d":1}}]`, `port "c": null values not supported`, `output: port "o": null values not supported`},
	} {
		wantFull := c.full
		if wantFull == "" && c.partial != "" {
			wantFull = `spec: instance "a" config: ` + c.partial
		} else if wantFull != "" {
			wantFull = `spec: instance "a" ` + wantFull
		}
		wantPartial := c.partial
		if wantPartial != "" {
			wantPartial = `spec: instance "a": ` + wantPartial
		}
		partial, full := map[string]int{}, map[string]int{}
		for range 200 {
			var p Partial
			partial[errText(p.UnmarshalJSON([]byte(c.doc)))]++
			var f Full
			full[errText(f.UnmarshalJSON([]byte(c.doc)))]++
		}
		if len(partial) != 1 || partial[wantPartial] != 200 {
			t.Errorf("%s as a partial: messages %v, want only %q", c.doc, partial, wantPartial)
		}
		if len(full) != 1 || full[wantFull] != 200 {
			t.Errorf("%s as a full specification: messages %v, want only %q", c.doc, full, wantFull)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckReader(t, "document", data)
		// The writer's output of a specification made from the input
		// reads back to it.
		g := &gen{b: data}
		full := g.full()
		CheckReader(t, "written", Marshal(full))
		CheckReader(t, "written indented", MarshalIndent(full, "\t", " "))
	})
}
