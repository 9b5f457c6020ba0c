package spec_test

// The reader against the decoding path it replaced, on what the engine
// and the stack controller produce: the OpenMRS golden, the configured
// Table 1 apps and generated fleets, and stack records after apply,
// re-apply and a drift repair, read back through a store reload.
// CheckReader and the oracle are in reader_test.go; the answers and
// records come from writer_oracle_test.go.

import (
	"bytes"
	"os"
	"testing"

	"engage/internal/spec"
	"engage/internal/stack"
	"engage/internal/store"
)

func TestReaderOracleGolden(t *testing.T) {
	golden, err := os.ReadFile("../config/testdata/openmrs_full.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.CheckReader(t, "golden", golden)
	var full spec.Full
	if err := full.UnmarshalJSON(golden); err != nil {
		t.Fatal(err)
	}
	if text, _ := spec.Render(&full); text+"\n" != string(golden) {
		t.Fatalf("the decoded golden renders differently:\n%s", text)
	}
}

// checkRead holds the reader to the oracle on both encodings of the
// partial and the answer.
func checkRead(t *testing.T, name string, p *spec.Partial, full *spec.Full) {
	t.Helper()
	for leg, d := range map[string]spec.Document{"partial": p, "full": full} {
		spec.CheckReader(t, name+"/"+leg, spec.Marshal(d))
		spec.CheckReader(t, name+"/"+leg+" indented", spec.MarshalIndent(d, "  ", "  "))
	}
}

func TestReaderOracleEngineAnswers(t *testing.T) { forEachAnswer(t, checkRead) }

// TestReaderOracleStackRecords: each record's desired specification
// reads as the oracle reads it, and a store flushed and reloaded holds
// the same record, encoded alike.
func TestReaderOracleStackRecords(t *testing.T) {
	forEachRecord(t, func(t *testing.T, leg string, st *stack.Stack) {
		spec.CheckReader(t, leg, spec.Marshal(st.Desired))
		s := store.New()
		if _, err := s.CompareAndSwap(st.Name, 0, "applied", st); err != nil {
			t.Fatal(err)
		}
		var flushed bytes.Buffer
		if err := s.WriteJSON(&flushed); err != nil {
			t.Fatal(err)
		}
		back, err := store.ReadStore(&flushed)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := back.Get(st.Name)
		if !ok {
			t.Fatalf("%s: the reload lost the record", leg)
		}
		if !bytes.Equal(spec.Marshal(rec.Stack), spec.Marshal(st)) {
			t.Fatalf("%s: the reloaded record encodes differently", leg)
		}
		if want, _ := s.Get(st.Name); !bytes.Equal(rec.Body(), want.Body()) {
			t.Fatalf("%s: the reloaded record's body differs", leg)
		}
	})
}
