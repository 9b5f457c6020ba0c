package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"engage/internal/spec"
	"engage/internal/workload"
)

// TestDecodeMessagesPinned: request bodies the reader rejects answer
// with the messages json.Decoder and the old partial decoding gave,
// type mismatches inside a partial named at the request's member.
func TestDecodeMessagesPinned(t *testing.T) {
	h := newTestServer(t).Handler()
	for _, c := range []struct{ path, body, message string }{
		{"/v1/configure", `{"partial": [`, `malformed request body: unexpected EOF`},
		{"/v1/configure", ``, `malformed request body: EOF`},
		{"/v1/configure", "  \n", `malformed request body: EOF`},
		{"/v1/configure", `{"partial":[{"id":5}]}`, `malformed request body: json: cannot unmarshal number into Go struct field configureRequest.partial.id of type string`},
		{"/v1/configure", `{"partial":5}`, `malformed request body: json: cannot unmarshal number into Go struct field configureRequest.partial of type []spec.partialInstanceJSON`},
		{"/v1/configure", `{"partial":{}}`, `malformed request body: json: cannot unmarshal object into Go struct field configureRequest.partial of type []spec.partialInstanceJSON`},
		{"/v1/configure", `{"partial":[5]}`, `malformed request body: json: cannot unmarshal number into Go struct field configureRequest.partial of type spec.partialInstanceJSON`},
		{"/v1/configure", `{"parallel":"x","partial":[{"id":""}]}`, `malformed request body: spec: instance with empty id`},
		{"/v1/configure", `{"parallel":"x"}`, `malformed request body: json: cannot unmarshal string into Go struct field configureRequest.parallel of type bool`},
		{"/v1/configure", `{"parallel":1,"partial":[{"id":5}]}`, `malformed request body: json: cannot unmarshal number into Go struct field configureRequest.partial.id of type string`},
		{"/v1/configure", `[]`, `malformed request body: json: cannot unmarshal array into Go value of type api.configureRequest`},
		{"/v1/configure", `null`, `"partial" must name at least one instance`},
		{"/v1/configure", `{"partial":null}`, `"partial" must name at least one instance`},
		{"/v1/configure", `{"partial":[{"id":"a","inside":{"id":3}}]}`, `malformed request body: json: cannot unmarshal number into Go struct field configureRequest.partial.inside.id of type string`},
		{"/v1/configure", `{"partial":[{"id":"a","config_port":{"x":1e400}}]}`, `malformed request body: json: cannot unmarshal number 1e400 into Go struct field configureRequest.partial.config_port of type float64`},
		{"/v1/configure", `{"partial":[{"id":"a","config_port":{"x":1.5}}]}`, `malformed request body: spec: instance "a": port "x": non-integer number 1.5 not supported`},
		{"/v1/configure", `{"partial":[{"id":"a"}],"partial":[{"id":""}]}`, `malformed request body: spec: instance with empty id`},
		{"/v1/deploy", `{"partial":[{"ID":"a","Config_Port":{"p":null}}]}`, `malformed request body: spec: instance "a": port "p": null values not supported`},
		{"/v1/lint", `{"partial":[{"id":true}]}`, `malformed request body: json: cannot unmarshal bool into Go struct field lintRequest.partial.id of type string`},
		{"/v1/stacks/web", `{"action":5}`, `malformed request body: json: cannot unmarshal number into Go struct field stackPostRequest.action of type string`},
		{"/v1/stacks/web", `{"expect_version":1.5}`, `malformed request body: json: cannot unmarshal number 1.5 into Go struct field stackPostRequest.expect_version of type int64`},
		{"/v1/stacks/web", `{"expect_version":99999999999999999999}`, `malformed request body: json: cannot unmarshal number 99999999999999999999 into Go struct field stackPostRequest.expect_version of type int64`},
		{"/v1/stacks/web", `{"max_rounds":1e2}`, `malformed request body: json: cannot unmarshal number 1e2 into Go struct field stackPostRequest.max_rounds of type int`},
		{"/v1/stacks/web", `{"ACTION":"bogus","Max_Rounds":2}`, `unknown action "bogus" (want apply or reconcile)`},
		{"/v1/stacks/web", `{"action":"reconcile","partial":[{"id":"a","inside":[]}]}`, `malformed request body: json: cannot unmarshal array into Go struct field stackPostRequest.partial.inside of type spec.linkJSON`},
		{"/v1/packages", `{`, `malformed request body: unexpected EOF`},
	} {
		st, resp, raw := do(t, h, "POST", c.path, []byte(c.body))
		msg, _ := resp["error"].(map[string]any)["message"].(string)
		if st != http.StatusBadRequest || errorCode(resp) != "bad_request" || msg != c.message {
			t.Errorf("POST %s %s: status %d: %s\nwant 400 %s", c.path, c.body, st, raw, c.message)
		}
	}
}

// TestDecodeTrailingData: a body with anything but space after its JSON
// value is a 400 on every POST endpoint; trailing space is not.
func TestDecodeTrailingData(t *testing.T) {
	h := newBundledServer(t).Handler()
	apply := body(t, map[string]any{"action": "apply", "partial": bundledPartial()})
	for path, payload := range map[string][]byte{
		"/v1/configure":  configureBody(t, bundledPartial()),
		"/v1/deploy":     configureBody(t, bundledPartial()),
		"/v1/lint":       configureBody(t, bundledPartial()),
		"/v1/stacks/web": apply,
		"/v1/packages":   archiveBody(t, appArchive(t, "trail", "1.0")),
	} {
		garbage := append(bytes.Clone(payload), " garbage"...)
		st, resp, raw := do(t, h, "POST", path, garbage)
		msg, _ := resp["error"].(map[string]any)["message"].(string)
		if want := "malformed request body: invalid character 'g' after top-level value"; st != http.StatusBadRequest || msg != want {
			t.Errorf("POST %s with trailing data: status %d: %.300s", path, st, raw)
		}
		if st, _, raw := do(t, h, "POST", path, append(bytes.Clone(payload), " \n\t\r"...)); st >= 400 {
			t.Errorf("POST %s with trailing space: status %d: %.300s", path, st, raw)
		}
	}
}

// TestDecodeRequestOracle: every request type reads what json.Decoder
// read into it, member for member, and rejects what it rejected.
func TestDecodeRequestOracle(t *testing.T) {
	partial := string(configureBody(t, choicePartial()))
	partial = partial[len(`{"partial":`) : len(partial)-1]
	bodies := []string{
		`{}`, `null`, `{"partial":` + partial + `}`, `{"PARTIAL":` + partial + `,"Parallel":true}`,
		`{"partial":` + partial + `,"partial":null}`, `{"partial":null,"partial":[]}`,
		`{"parallel":true,"parallel":false,"parallel":null}`, `{"unknown":[{"deep":1}],"parallel":true}`,
		`{"action":"reconcile","expect_version":0,"max_rounds":7}`, `{"expect_version":null,"max_rounds":null,"action":null}`,
		`{"expect_version":-3,"expect_version":4}`, `{"Expect_Version":9223372036854775807}`, `{"max_rounds":-0}`,
		`{"action":"apply","partial":` + partial + `}`, `{"partial":[{"id":"x","config_port":{"p":{"__secret__":"s"}}}]}`,
		`{"parallel":"x"}`, `{"max_rounds":1.5}`, `{"expect_version":{}}`, `{"action":[]}`, `[]`, `5`, `"s"`, `true`,
		`{"partial":[{"id":""}]}`, `{"partial":"x"}`, `{"partial":[{"id":"a","config_port":{"x":null}}],"parallel":"x"}`,
		`{`, `{"partial":[}`, ``,
	}
	for _, b := range bodies {
		for _, pair := range [][2]spec.Decodable{
			{new(configureRequest), new(configureRequest)},
			{new(stackPostRequest), new(stackPostRequest)},
			{new(lintRequest), new(lintRequest)},
		} {
			got, want := pair[0], pair[1]
			gotErr := spec.ReadRequest([]byte(b), got)
			wantErr := json.NewDecoder(bytes.NewReader([]byte(b))).Decode(want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%T %s: reader error %v, json.Decoder error %v", got, b, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %s: reader read %+v, json.Decoder %+v", got, b, got, want)
			}
		}
	}
}

// BenchmarkDecodeBody reads a configure body through decodeBody: a
// slice of fleet250's partial about the size serve_warm posts (1 KB),
// and the whole partial.
func BenchmarkDecodeBody(b *testing.B) {
	shape, _ := workload.FleetShapeByName("fleet250")
	_, p, err := workload.Generate(shape.Spec)
	if err != nil {
		b.Fatal(err)
	}
	small := &spec.Partial{}
	for _, inst := range p.Instances {
		if len(configureBody(b, small)) >= 1<<10 {
			break
		}
		small.Instances = append(small.Instances, inst)
	}
	for name, part := range map[string]*spec.Partial{"1KB": small, "fleet250": p} {
		payload := configureBody(b, part)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for range b.N {
				req := httptest.NewRequest("POST", "/v1/configure", bytes.NewReader(payload))
				var cr configureRequest
				if !decodeBody(httptest.NewRecorder(), req, &cr) {
					b.Fatal("decode failed")
				}
			}
		})
	}
}
