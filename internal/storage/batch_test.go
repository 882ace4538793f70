package storage

import (
	"testing"

	"jackpine/internal/geom"
)

func batchTestTuples() [][]byte {
	var tuples [][]byte
	for i := 0; i < 6; i++ {
		g := NewGeom(geom.Pt(float64(i), float64(i)))
		if i == 4 {
			g = Null()
		}
		tuples = append(tuples, EncodeTuple([]Value{
			NewInt(int64(i)), NewText(string(rune('a' + i))), NewFloat(float64(i) + 0.5), g,
		}))
	}
	return tuples
}

// TestColBatchAppendFilter: Append copies exactly the tuples that pass
// its TupleFilter — envelope window first, then every comparison — with
// column offsets rebased into the arena, and selects each copied slot.
func TestColBatchAppendFilter(t *testing.T) {
	tuples := batchTestTuples()
	for _, tc := range []struct {
		name   string
		filter *TupleFilter
		want   []int64
	}{
		{"nil", nil, []int64{0, 1, 2, 3, 4, 5}},
		{"window", &TupleFilter{MBRCol: 3, Window: geom.Rect{MinX: 1, MinY: 1, MaxX: 4, MaxY: 4}},
			[]int64{1, 2, 3}},
		{"int eq", &TupleFilter{MBRCol: -1, Compares: []ColCompare{{Col: 0, Op: CmpEQ, Lit: NewInt(2)}}},
			[]int64{2}},
		{"int vs float", &TupleFilter{MBRCol: -1, Compares: []ColCompare{{Col: 0, Op: CmpLT, Lit: NewFloat(2.5)}}},
			[]int64{0, 1, 2}},
		{"text and float", &TupleFilter{MBRCol: -1, Compares: []ColCompare{
			{Col: 1, Op: CmpGE, Lit: NewText("b")}, {Col: 2, Op: CmpNE, Lit: NewFloat(3.5)}}},
			[]int64{1, 2, 4, 5}},
		{"window and text", &TupleFilter{MBRCol: 3, Window: geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9},
			Compares: []ColCompare{{Col: 1, Op: CmpGT, Lit: NewText("c")}}},
			[]int64{3, 5}},
		{"null literal", &TupleFilter{MBRCol: -1, Compares: []ColCompare{{Col: 0, Op: CmpEQ, Lit: Null()}}},
			nil},
		{"incomparable kept", &TupleFilter{MBRCol: -1, Compares: []ColCompare{{Col: 1, Op: CmpEQ, Lit: NewInt(1)}}},
			[]int64{0, 1, 2, 3, 4, 5}},
	} {
		var b ColBatch
		b.Reset(4, 4)
		for i, tup := range tuples {
			if err := b.Append(int64(i), tup, tc.filter); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if b.Len() != len(tc.want) || len(b.Sel) != len(tc.want) {
			t.Fatalf("%s: %d slots, %d selected, want %v", tc.name, b.Len(), len(b.Sel), tc.want)
		}
		for s, id := range tc.want {
			if b.Sel[s] != s || b.ID(s) != id {
				t.Errorf("%s: slot %d selected as %d with id %d, want id %d", tc.name, s, b.Sel[s], b.ID(s), id)
			}
			want, _ := DecodeTuple(tuples[id], 4)
			for c := range want {
				got, err := b.Col(s, c)
				if cmp, _ := Compare(got, want[c]); err != nil || cmp != 0 || got.Type != want[c].Type {
					t.Errorf("%s: slot %d col %d = %v (%v), want %v", tc.name, s, c, got, err, want[c])
				}
			}
		}
	}
}

// TestColBatchAppendValidatesDroppedTuples: the structural walk and the
// envelope read run on every tuple, so a corrupt tuple errors even when
// a comparison would have dropped it.
func TestColBatchAppendValidatesDroppedTuples(t *testing.T) {
	never := &TupleFilter{MBRCol: -1, Compares: []ColCompare{{Col: 0, Op: CmpEQ, Lit: NewInt(-1)}}}
	good := EncodeTuple([]Value{NewInt(1), NewGeom(geom.Pt(1, 1))})
	var b ColBatch
	b.Reset(2, 2)
	if err := b.Append(0, good[:len(good)-1], never); err == nil {
		t.Error("truncated tuple accepted")
	}
	bad := EncodeTuple([]Value{NewInt(1), NewGeom(geom.Pt(1, 1))})
	bad[len(bad)-21] = 99 // WKB geometry type of the point
	envNever := &TupleFilter{MBRCol: 1, Window: geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9},
		Compares: never.Compares}
	if err := b.Append(0, bad, envNever); err == nil {
		t.Error("corrupt envelope accepted")
	}
	if b.Len() != 0 {
		t.Errorf("%d slots after rejected tuples", b.Len())
	}
}

// TestColBatchAppendNoAllocs: once the batch is warm, testing and
// copying a tuple allocates nothing, text comparisons included.
func TestColBatchAppendNoAllocs(t *testing.T) {
	tuples := batchTestTuples()
	f := &TupleFilter{MBRCol: 3, Window: geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9}, Compares: []ColCompare{
		{Col: 0, Op: CmpGE, Lit: NewInt(0)},
		{Col: 1, Op: CmpLE, Lit: NewText("c")},
		{Col: 2, Op: CmpLT, Lit: NewFloat(9)},
	}}
	var b ColBatch
	fill := func() {
		b.Reset(4, 4)
		for i, tup := range tuples {
			if err := b.Append(int64(i), tup, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if b.Len() != 3 {
		t.Fatalf("%d survivors, want 3", b.Len())
	}
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("Append allocates %.1f per batch, want 0", allocs)
	}
}
