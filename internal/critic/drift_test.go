package critic_test

import (
	"context"
	"testing"

	"repro/internal/boot"
	"repro/internal/critic"
	"repro/internal/sqlast"
)

// A misspelt column inside a scalar subquery is repaired wherever the
// subquery sits: as a comparison's right-hand side or as a BETWEEN
// bound.
func TestReviewRepairsEverySubquerySite(t *testing.T) {
	_, db, err := boot.ResolveSchema("flights", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := critic.New(db, critic.Config{Seed: 1})
	for _, sql := range []string{
		"SELECT distance FROM flights WHERE price > (SELECT MIN(elevaton) FROM airports)",
		"SELECT distance FROM flights WHERE price BETWEEN (SELECT MIN(elevaton) FROM airports) AND 900",
	} {
		if _, out := c.Review(context.Background(), sqlast.MustParse(sql)); out.String() != "repaired(identifier)" {
			t.Errorf("Review(%q) = %s, want repaired(identifier)", sql, out)
		}
	}
}
