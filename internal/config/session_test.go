package config

import (
	"sort"
	"testing"

	"engage/internal/spec"
)

// TestResolveAfterSolvePinned: a session lent out for a pinned re-solve
// (a drift repair) and then asked its original question again answers
// with the bytes of the cold solve. The second pin set is the Java
// alternative the cold model did not choose, so the pinned model is a
// different one — Resolve must not rebuild from it.
func TestResolveAfterSolvePinned(t *testing.T) {
	e := engine(t)
	partial := fig2(t)
	full, sess, err := e.ConfigureSession(partial)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := spec.Render(full)
	if err != nil {
		t.Fatal(err)
	}

	selected := sess.Selected(sess.Model)
	var chosen, other []string
	for id := range sess.Problem.VarOf {
		if selected[id] {
			chosen = append(chosen, id)
		} else {
			other = append(other, id)
		}
	}
	sort.Strings(chosen)
	if len(chosen) < 2 || len(other) != 1 {
		t.Fatalf("fig. 2 should select all but one Java alternative; selected %v, not selected %v", chosen, other)
	}

	for _, pins := range [][]string{chosen[:len(chosen)-1], other} {
		res, err := sess.SolvePinned(pins)
		if err != nil || res.Model == nil {
			t.Fatalf("SolvePinned(%v): %v, status %s", pins, err, res.Status)
		}
		if !sess.Selected(res.Model)[pins[0]] {
			t.Fatalf("SolvePinned(%v) returned a model without its pin", pins)
		}
		again, _, err := sess.Resolve(e, partial)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := spec.Render(again)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("after SolvePinned(%v), Resolve differs from the cold full specification:\n--- cold ---\n%s\n--- warm ---\n%s", pins, cold, warm)
		}
	}
}
