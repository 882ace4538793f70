package cluster

import (
	"math"
	"testing"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
)

func seqRows(ids ...int64) [][]storage.Value {
	out := make([][]storage.Value, len(ids))
	for i, id := range ids {
		out[i] = []storage.Value{storage.NewInt(id)}
	}
	return out
}

// TestSliceWindow holds the engine's OFFSET/LIMIT helper, which the
// router also applies to merged shard rows, to its edge cases.
func TestSliceWindow(t *testing.T) {
	cases := []struct {
		name          string
		rows          [][]storage.Value
		offset, limit int
		want          []int64
	}{
		{"no window", seqRows(1, 2, 3), 0, -1, []int64{1, 2, 3}},
		{"limit cuts", seqRows(1, 2, 3), 0, 2, []int64{1, 2}},
		{"limit zero", seqRows(1, 2, 3), 0, 0, nil},
		{"offset within", seqRows(1, 2, 3), 1, -1, []int64{2, 3}},
		{"offset at end", seqRows(1, 2, 3), 3, -1, nil},
		{"offset past end", seqRows(1, 2, 3), 7, -1, nil},
		{"offset past end with limit", seqRows(1, 2, 3), 7, 2, nil},
		{"offset plus limit overruns", seqRows(1, 2, 3), 2, 5, []int64{3}},
		{"empty input", nil, 0, 10, nil},
		{"empty input with offset", nil, 4, -1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sql.Window(tc.rows, tc.offset, tc.limit)
			if len(got) != len(tc.want) {
				t.Fatalf("Window(%d rows, offset=%d, limit=%d) = %d rows, want %d",
					len(tc.rows), tc.offset, tc.limit, len(got), len(tc.want))
			}
			for i, r := range got {
				if r[0].Int != tc.want[i] {
					t.Errorf("row %d = %d, want %d", i, r[0].Int, tc.want[i])
				}
			}
		})
	}
}

func TestKnnBound(t *testing.T) {
	keyed := func(keys ...storage.Value) [][]storage.Value {
		out := make([][]storage.Value, len(keys))
		for i, k := range keys {
			out[i] = []storage.Value{storage.NewInt(int64(i)), k}
		}
		return out
	}
	rows := keyed(storage.NewFloat(1.5), storage.NewFloat(2.5), storage.NewFloat(9))

	// Fewer rows than wanted: the bound cannot exclude anything yet.
	if b := knnBound(rows, 5, 1); !math.IsInf(b, 1) {
		t.Errorf("underfull bound = %v, want +Inf", b)
	}
	// Exactly k rows: bound is the k-th distance key.
	if b := knnBound(rows, 3, 1); b != 9 {
		t.Errorf("full bound = %v, want 9", b)
	}
	if b := knnBound(rows, 2, 1); b != 2.5 {
		t.Errorf("k=2 bound = %v, want 2.5", b)
	}
	// A NULL k-th key sorts before every real distance: no shard with a
	// finite minimum distance can beat it.
	withNull := keyed(storage.Null(), storage.NewFloat(4))
	if b := knnBound(withNull, 1, 1); !math.IsInf(b, -1) {
		t.Errorf("NULL-key bound = %v, want -Inf", b)
	}
}
