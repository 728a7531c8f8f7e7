package runtime_test

import (
	"testing"

	"repro/internal/boot"
	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/sqlast"
)

// Every condition shape is repaired alike: a scalar subquery repairs
// its own FROM wherever it sits (a comparison, a BETWEEN bound, a
// HAVING right-hand side), and a column operand forces its table into
// the outer FROM wherever it sits, so no repaired query fails on an
// unknown column. (The HAVING form still fails, as SQL requires: its
// right-hand column is neither grouped nor aggregated.)
func TestPostProcessShapesAgree(t *testing.T) {
	s, db, err := boot.ResolveSchema("flights", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want string }{
		// Subqueries leave the outer FROM alone.
		{
			"SELECT distance FROM flights WHERE price > (SELECT MIN(elevation) FROM airports)",
			"SELECT distance FROM flights WHERE price > (SELECT MIN(elevation) FROM airports)",
		},
		{
			"SELECT distance FROM flights WHERE price BETWEEN (SELECT MIN(elevation) FROM airports) AND 900",
			"SELECT distance FROM flights WHERE price BETWEEN (SELECT MIN(elevation) FROM airports) AND 900",
		},
		{
			"SELECT COUNT(*) FROM flights GROUP BY airline_id HAVING COUNT(*) > (SELECT MIN(fleet_size) FROM airlines)",
			"SELECT COUNT(*) FROM flights GROUP BY airline_id HAVING COUNT(*) > (SELECT MIN(fleet_size) FROM airlines)",
		},
		// Column operands join their table in.
		{
			"SELECT distance FROM flights WHERE price > elevation",
			"SELECT flights.distance FROM flights, airports WHERE flights.origin_id = airports.id AND flights.price > airports.elevation",
		},
		{
			"SELECT distance FROM flights WHERE price BETWEEN elevation AND 900",
			"SELECT flights.distance FROM flights, airports WHERE flights.origin_id = airports.id AND flights.price BETWEEN airports.elevation AND 900",
		},
		{
			"SELECT airline_id FROM flights GROUP BY airline_id HAVING MAX(price) > elevation",
			"SELECT flights.airline_id FROM flights, airports WHERE flights.origin_id = airports.id GROUP BY flights.airline_id HAVING MAX(flights.price) > airports.elevation",
		},
	} {
		out, err := runtime.PostProcess(sqlast.MustParse(tc.in), s, nil)
		if err != nil {
			t.Errorf("PostProcess(%q): %v", tc.in, err)
			continue
		}
		if out.String() != tc.want {
			t.Errorf("PostProcess(%q)\n got  %s\n want %s", tc.in, out, tc.want)
		}
		if _, err := db.Execute(out); engine.ErrKindOf(err) == engine.ErrUnknownColumn {
			t.Errorf("Execute(%q): %v", out, err)
		}
	}
}
