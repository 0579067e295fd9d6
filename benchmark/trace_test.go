package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		// op 0: [0,100) with children [10,30), [20,50) (overlapping),
		// [40,45) (nested inside the second) and [90,120) (running past
		// the parent's end).
		{ID: 1, Parent: 0, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 0, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 0, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 3, Op: 0, Name: "c", Start: 40, End: 45},
		{ID: 5, Parent: 1, Op: 0, Name: "d", Start: 90, End: 120},
		// op 1: a root with no children.
		{ID: 6, Parent: 0, Op: 1, Name: "op", Start: 200, End: 260},
		// set-up spans never count toward an op.
		{ID: 7, Parent: 0, Op: setupOp, Name: "setup", Start: 300, End: 310},
		{ID: 8, Parent: 7, Op: setupOp, Name: "a", Start: 300, End: 305},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 - 10) - (100 - 90), // union of children clipped to [0,100)
		2: 20,
		3: 30 - 5,
		4: 5,
		5: 30,
		6: 60,
		7: 5,
		8: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}

	opSelf, calls := layerTimes(spans, func(op int) bool { return op != setupOp })
	if opSelf["a"] != 20 || calls["a"] != 1 {
		t.Errorf("layer a over ops: self %d in %d calls, want 20 in 1", opSelf["a"], calls["a"])
	}
	if opSelf["op"] != 50+60 || calls["op"] != 2 {
		t.Errorf("layer op: self %d in %d calls, want 110 in 2", opSelf["op"], calls["op"])
	}

	// Unattributed: op roots' self time over their wall time.
	if got, want := unattributedShare(spans), float64(50+60)/float64(100+60); got != want {
		t.Errorf("unattributed share %v, want %v", got, want)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	var off *tracer
	if sp := off.root("op", 0).child("x"); sp.traced() {
		t.Fatal("a nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.root("op", 3)
	c := root.child("x")
	c.end()
	open := root.child("never-closed")
	_ = open
	root.end()
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Op != 3 || got[0].Parent != 0 {
		t.Fatalf("bad nesting: %+v", got)
	}
}
