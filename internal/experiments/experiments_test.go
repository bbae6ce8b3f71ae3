package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tinySuite runs experiments at reduced scale so the whole harness is
// exercised in seconds.
func tinySuite() *Suite {
	return NewSuite(Config{M: 20, Repeats: 1, DocNodes: 1200, GenH: 5, MaxH: 100})
}

func TestAllExperimentsRun(t *testing.T) {
	s := tinySuite()
	for _, name := range s.Names() {
		var buf bytes.Buffer
		if err := s.Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "== "+name) {
			t.Fatalf("%s: output missing header:\n%s", name, buf.String())
		}
		if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) < 4 {
			t.Fatalf("%s: suspiciously short output:\n%s", name, buf.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := tinySuite()
	var buf bytes.Buffer
	if err := s.Run("nope", &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig9bMonotone(t *testing.T) {
	s := tinySuite()
	tbl, err := s.Fig9b()
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 30
	for _, row := range tbl.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad count %q", row[1])
		}
		if n > prev {
			t.Fatalf("c-block count increased with tau: %v", tbl.Rows)
		}
		prev = n
	}
}

func TestTable2CapacitiesMatchPaper(t *testing.T) {
	s := tinySuite()
	tbl, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	wantCaps := []string{"30", "47", "31", "41", "21", "77", "226", "127", "619", "619"}
	for i, row := range tbl.Rows {
		if row[6] != wantCaps[i] {
			t.Errorf("%s: capacity %s, want %s", row[0], row[6], wantCaps[i])
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T", Note: "n",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: T ==", "n", "a    bb", "333  4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
