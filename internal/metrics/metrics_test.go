package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
	if math.Abs(CV(xs)-0.4) > 1e-12 {
		t.Fatalf("CV = %v", CV(xs))
	}
	if Max(xs) != 9 || Min(xs) != 2 || Sum(xs) != 40 {
		t.Fatal("Max/Min/Sum wrong")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || CV(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty inputs should be zero")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Pearson(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %v, want 1", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti correlation = %v, want -1", got)
	}
	// Affine transforms preserve the coefficient.
	scaled := []float64{10, 30, 50, 70, 90} // 20x - 10
	if got := Pearson(xs, scaled); math.Abs(got-1) > 1e-12 {
		t.Fatalf("affine correlation = %v, want 1", got)
	}
	// Independently computed reference value: sxy=10, sxx=10, syy=14.8,
	// so r = 10/sqrt(148) ≈ 0.82199.
	ys := []float64{2, 1, 4, 3, 6}
	want := 10 / math.Sqrt(148)
	if got := Pearson(xs, ys); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Pearson = %v, want %v", got, want)
	}
}

func TestPearsonUndefined(t *testing.T) {
	if Pearson(nil, nil) != 0 {
		t.Fatal("empty inputs should be 0")
	}
	if Pearson([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance series should be 0")
	}
}

func TestCVZeroMean(t *testing.T) {
	if CV([]float64{0, 0, 0}) != 0 {
		t.Fatal("zero-mean CV should be 0")
	}
}

func TestCVScaleInvariance(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(math.Abs(x), 100) + 1
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] * 7
		}
		return math.Abs(CV(xs)-CV(ys)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := &Table{Title: "Fig X", XLabel: "procs", Columns: []string{"a", "b"}}
	tb.AddRow(2, 1.5, 2.5)
	tb.AddRow(4, 1.0, 2.0)
	if got := tb.Column("b"); len(got) != 2 || got[0] != 2.5 || got[1] != 2.0 {
		t.Fatalf("Column = %v", got)
	}
	if tb.Column("zzz") != nil {
		t.Fatal("missing column should be nil")
	}
	s := tb.String()
	for _, want := range []string{"Fig X", "procs", "a", "b", "1.5000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	tb.Notes = append(tb.Notes, "hello")
	if !strings.Contains(tb.String(), "note: hello") {
		t.Fatal("notes not rendered")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{Title: "T", XLabel: "x", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2, 3)
	tb.AddRow(4, 5, 6)
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,2,3\n4,5,6\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := &Table{Title: "T", XLabel: "x", Columns: []string{"a"}, Notes: []string{"n"}}
	tb.AddRow(1, 2)
	var buf strings.Builder
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "T" || back.XLabel != "x" || len(back.Rows) != 1 || back.Rows[0][0] != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if len(back.Notes) != 1 || back.Notes[0] != "n" {
		t.Fatal("notes lost")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline extremes wrong: %q", s)
	}
	// Constant input: all minimum ticks.
	for _, r := range Sparkline([]float64{5, 5, 5}) {
		if r != '▁' {
			t.Fatalf("constant sparkline should be flat: %q", r)
		}
	}
}

func TestBarChart(t *testing.T) {
	lines := BarChart([]string{"a", "b"}, []float64{1, 2}, 10)
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("█", 10)) {
		t.Fatalf("max bar should be full width: %q", lines[1])
	}
	if strings.Count(lines[0], "█") != 5 {
		t.Fatalf("half bar expected: %q", lines[0])
	}
	// Zero data renders empty bars without panicking.
	for _, l := range BarChart(nil, []float64{0, 0}, 5) {
		if strings.Contains(l, "█") {
			t.Fatal("zero data should have empty bars")
		}
	}
}
