package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckKinds(t *testing.T) {
	cases := []struct {
		l   Limit
		bad bool
	}{
		{Limit{"at ceiling", 50, 50, Ceiling, 0}, false},
		{Limit{"over ceiling", 51, 50, Ceiling, 0}, true},
		{Limit{"inside regress", 109, 100, Regress, 0.10}, false},
		{Limit{"past regress", 111, 100, Regress, 0.10}, true},
		{Limit{"regress without reference", 111, 0, Regress, 0.10}, false},
	}
	var all []Limit
	for _, c := range cases {
		all = append(all, c.l)
		if err := Check("gate", []Limit{c.l}); (err != nil) != c.bad {
			t.Errorf("%s: err = %v, want violation %v", c.l.Name, err, c.bad)
		}
	}
	// Every violation is reported, not just the first.
	err := Check("gate", all)
	if err == nil {
		t.Fatal("table with violations passed")
	}
	for _, c := range cases {
		if got := strings.Contains(err.Error(), c.l.Name+" "); got != c.bad {
			t.Errorf("%s: reported %v, want %v\n%v", c.l.Name, got, c.bad, err)
		}
	}
	if !strings.HasPrefix(err.Error(), "gate:") {
		t.Errorf("error not headed by the gate's name: %v", err)
	}
	if err := Check("gate", nil); err != nil {
		t.Errorf("empty table failed: %v", err)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	type row struct {
		Name string  `json:"name"`
		V    float64 `json:"v"`
	}
	path := filepath.Join(t.TempDir(), "r.json")
	in := []row{{"a", 1.5}, {"b", 0}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load[[]row](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := Load[[]row](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := WriteFile(path, map[string]any{"name": 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[[]row](path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("malformed file: err = %v, want one naming the path", err)
	}
}
