package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"jackpine/internal/storage"
)

// hashJoinFixture builds two tables joined by an unindexed key.
func hashJoinFixture(t *testing.T) *Engine {
	t.Helper()
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE owners (oid INTEGER, name TEXT)")
	e.MustExec("CREATE TABLE pets (pid INTEGER, owner_id INTEGER, species TEXT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO owners VALUES ")
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'owner-%d')", i, i)
	}
	e.MustExec(sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO pets VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'sp-%d')", i, i%50, i%3)
	}
	e.MustExec(sb.String())
	return e
}

func TestHashJoinChosenAndCorrect(t *testing.T) {
	e := hashJoinFixture(t)
	res := e.MustExec("SELECT o.name, p.pid FROM owners o JOIN pets p ON p.owner_id = o.oid")
	if len(res.Rows) != 200 {
		t.Fatalf("join rows = %d, want 200", len(res.Rows))
	}
	if res.Access[1] != "p:hash" {
		t.Fatalf("access = %v, expected hash join on pets", res.Access)
	}
	// Every pet joins to exactly its owner.
	for _, row := range res.Rows {
		wantOwner := fmt.Sprintf("owner-%d", row[1].Int%50)
		if row[0].Text != wantOwner {
			t.Fatalf("pet %d joined to %q, want %q", row[1].Int, row[0].Text, wantOwner)
		}
	}
	// Reversed equality sides must also use the hash path.
	res = e.MustExec("SELECT COUNT(*) FROM owners o JOIN pets p ON o.oid = p.owner_id")
	if res.Access[1] != "p:hash" || res.Rows[0][0].Int != 200 {
		t.Errorf("reversed: access=%v count=%v", res.Access, res.Rows[0][0])
	}
}

func TestHashJoinMatchesNestedLoopSemantics(t *testing.T) {
	e := hashJoinFixture(t)
	// Force a nested loop by joining on an inequality-wrapped condition
	// the planner cannot hash (owner_id + 0 = oid involves both sides).
	hashRes := e.MustExec("SELECT p.pid FROM owners o JOIN pets p ON p.owner_id = o.oid WHERE o.oid < 5")
	nlRes := e.MustExec("SELECT p.pid FROM owners o JOIN pets p ON p.owner_id + 0 = o.oid + 0 WHERE o.oid < 5")
	a := pidsOf(hashRes.Rows)
	b := pidsOf(nlRes.Rows)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("hash join %v != nested loop %v", a, b)
	}
	if nlRes.Access[1] == "p:hash" {
		t.Errorf("computed-key join should not use the hash path: %v", nlRes.Access)
	}
}

func pidsOf(rows [][]storage.Value) []int64 {
	var out []int64
	for _, r := range rows {
		out = append(out, r[0].Int)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE a (k INTEGER)")
	e.MustExec("CREATE TABLE b (k INTEGER)")
	e.MustExec("INSERT INTO a VALUES (1), (NULL), (2)")
	e.MustExec("INSERT INTO b VALUES (NULL), (2), (2)")
	res := e.MustExec("SELECT COUNT(*) FROM a JOIN b ON b.k = a.k")
	if res.Rows[0][0].Int != 2 {
		t.Errorf("null-key join count = %v, want 2", res.Rows[0][0])
	}
}

func TestHashJoinCrossTypeNumericKeys(t *testing.T) {
	e := Open(GaiaDB())
	e.MustExec("CREATE TABLE ints (k INTEGER)")
	e.MustExec("CREATE TABLE floats (k DOUBLE)")
	// 0 and -0.0 are equal, so they must share a hash bucket.
	e.MustExec("INSERT INTO ints VALUES (1), (2), (3), (0)")
	e.MustExec("INSERT INTO floats VALUES (2.0), (3.0), (4.5), (-0.0)")
	res := e.MustExec("SELECT COUNT(*) FROM ints i JOIN floats f ON f.k = i.k")
	if res.Rows[0][0].Int != 3 {
		t.Errorf("cross-type join count = %v, want 3", res.Rows[0][0])
	}
}
