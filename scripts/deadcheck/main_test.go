package main

import (
	"strings"
	"testing"
)

// TestCheckFixture runs the check over the module in testdata/mod: a
// facade (facade.go, with a root _test package), internal/a, cmd/app and
// benchmark/.
//
// Not to be listed: Link, NewLink (the root _test package names them);
// a.Link.Stats (cmd/app calls it); fifo.Len and Pop (cmd/app drains an
// a.Queue: reached through the interface only); Report.Rows (reached
// through Render's type-parameter constraint only); Kind.String (cmd/app
// prints a Kind with fmt); Kept and the keptHelper it calls (the keep
// list); OnlyBench (benchmark/ calls it); anything in cmd/ or benchmark/.
// Of Config's fields, read by the live Use: Rate (cmd/app's keyed
// literal writes it), Hits (++), Sum (+=), Debug (&c.Debug), Unread
// (never read), Name (json tag), Quiet (the keep list), Peer (not of
// basic kind), Stale (only the dead Dead reads it); pair's fields (a
// positional literal writes them).
func TestCheckFixture(t *testing.T) {
	got, err := check("testdata/mod", map[string]string{
		"a.Kept":         "the fixture's keep-list entry",
		"a.Config.Quiet": "the fixture's keep-list field",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ file, finding, why string }{ // in output order: by file, then line
		{"facade.go", "type fixture.Orphan is referenced", "an alias nothing references, though cmd/app builds an a.Pool"},
		{"internal/a/a.go", "method a.Pool.Stats is referenced", "nothing calls it; its namesake Link.Stats is live"},
		{"internal/a/a.go", "func a.Dead is referenced", "nothing calls it"},
		{"internal/a/a.go", "func a.helper is referenced", "only Dead calls it"},
		{"internal/a/a.go", "func a.fromDeadVar is referenced", "held by a variable only Dead reads (the variable itself is not listed)"},
		{"internal/a/a.go", "method a.fifo.Peek is referenced", "in no interface live code uses, and nobody names it"},
		{"internal/a/a.go", "func a.TestOnly is referenced", "only the root test calls it, and a test's reference into internal/ keeps nothing"},
		{"internal/a/a.go", "field a.Config.Window is read but written", "Use reads it; nothing writes it"},
		{"internal/a/a.go", "field a.Config.Limit is read but written", "only the root test writes it"},
	}
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = strings.HasPrefix(got[i], want[i].file+":") && strings.Contains(got[i], ": "+want[i].finding+" by no live non-test code")
	}
	if !ok {
		t.Errorf("check(testdata/mod) printed\n%swant\n%v", strings.Join(got, ""), want)
	}
}
