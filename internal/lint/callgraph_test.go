package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// programAnalyzerByName fetches one interprocedural analyzer from the
// suite.
func programAnalyzerByName(t *testing.T, name string) *ProgramAnalyzer {
	t.Helper()
	for _, a := range ProgramAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no program analyzer %q", name)
	return nil
}

// TestProgramAnalyzerGoldens proves every interprocedural analyzer
// fires on its bad fixture with exactly the expected diagnostics and
// stays silent on the clean fixture. The detflow case loads two bad
// packages into one Program: an internal-path one (map iteration, where
// only the transitive rule connects the helper to the simulation) and a
// cmd-path one (goroutine, where the per-package rule is silent by
// design).
func TestProgramAnalyzerGoldens(t *testing.T) {
	cases := []struct {
		analyzer string
		dir      string
		extraBad []string
	}{
		{analyzer: "hotpathalloc", dir: "hotpathalloc"},
		{analyzer: "determinism", dir: "detflow", extraBad: []string{filepath.Join("detflow", "cmd", "bad")}},
		{analyzer: "atomicmix", dir: "atomicmix"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			a := programAnalyzerByName(t, c.analyzer)

			pkgs := []*Package{loadFixture(t, filepath.Join(c.dir, "bad"))}
			for _, extra := range c.extraBad {
				pkgs = append(pkgs, loadFixture(t, extra))
			}
			got := render(a.Run(NewProgram(pkgs)))
			wantBytes, err := os.ReadFile(filepath.Join("testdata", "src", c.dir, "expected.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("bad fixture diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}

			clean := NewProgram([]*Package{loadFixture(t, filepath.Join(c.dir, "clean"))})
			if diags := a.Run(clean); len(diags) != 0 {
				t.Errorf("clean fixture produced findings:\n%s", render(diags))
			}
		})
	}
}

// TestStaleIgnore proves the three-way contract: a directive that
// suppresses nothing is reported on full-module Programs, stays
// unreported on partial loads (where an interprocedural finding rooted
// outside the load could still need it), and a live directive is never
// reported.
func TestStaleIgnore(t *testing.T) {
	bad := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "bad"))})
	bad.FullModule = true
	got := render(CheckProgram(bad))
	want := "bad.go:10: [staleignore] //lint:ignore seedflow directive suppresses nothing; the finding was fixed — delete the directive so it cannot mask a future regression\n"
	if got != want {
		t.Errorf("stale directive mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	partial := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "bad"))})
	if diags := CheckProgram(partial); len(diags) != 0 {
		t.Errorf("partial load reported stale directives:\n%s", render(diags))
	}

	clean := NewProgram([]*Package{loadFixture(t, filepath.Join("staleignore", "clean"))})
	clean.FullModule = true
	if diags := CheckProgram(clean); len(diags) != 0 {
		t.Errorf("live directive misreported:\n%s", render(diags))
	}
}

// TestCallGraphReachability pins the graph's conservatism on the shapes
// that matter: recursion terminates, a method value creates a may-call
// edge, an interface call fans out to every module method with the same
// name and signature shape (and to no same-named method of another
// shape), a call through a generic type's instantiation reaches the
// method's one declaration, and unreferenced functions stay
// unreachable.
func TestCallGraphReachability(t *testing.T) {
	p := loadFixture(t, "callgraph")
	prog := NewProgram([]*Package{p})

	roots := prog.HotRoots()
	if len(roots) != 2 || !strings.HasSuffix(roots[0], "Sim).Step") || shortID(roots[1]) != "Fill" {
		t.Fatalf("HotRoots = %v, want (*Sim).Step and Fill", roots)
	}

	reach := prog.Reachable(roots)
	short := map[string]string{}
	for id, root := range reach {
		short[shortID(id)] = shortID(root)
	}
	for fn, root := range map[string]string{
		"(*Sim).Step":      "(*Sim).Step",
		"(*Sim).helper":    "(*Sim).Step",
		"spin":             "(*Sim).Step",
		"(*A).Walk":        "(*Sim).Step",
		"(*B).Walk":        "(*Sim).Step",
		"Fill":             "Fill",
		"(*Queue[T]).Push": "Fill",
	} {
		if got, ok := short[fn]; !ok {
			t.Errorf("%s not reachable; got %v", fn, short)
		} else if got != root {
			t.Errorf("%s attributed to root %s, want %s", fn, got, root)
		}
	}
	if _, ok := short["(*C).Walk"]; ok {
		t.Errorf("(*C).Walk(int) cannot satisfy Walker but was reached; got %v", short)
	}
	if _, ok := short["lonely"]; ok {
		t.Errorf("lonely is unreachable by construction but was reached; got %v", short)
	}
	if len(short) != 7 {
		t.Errorf("reachable set has %d entries, want 7: %v", len(short), short)
	}

	// Reaching the generic method is what puts its append under
	// hotpathalloc: with no directive in the fixture, it must be flagged.
	got := render(programAnalyzerByName(t, "hotpathalloc").Run(prog))
	want := "callgraph.go:58: [hotpathalloc] append may grow its backing array in a hot path (reachable from Fill); reuse a preallocated buffer or document the amortization with //lint:ignore\n"
	if got != want {
		t.Errorf("hotpathalloc on the callgraph fixture\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
