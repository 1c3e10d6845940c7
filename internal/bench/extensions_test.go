package bench

import "testing"

func TestExtensionTables(t *testing.T) {
	r := lightRunner(t)

	dose := r.ExtensionDose()
	if len(dose.Rows) != 2 {
		t.Fatalf("dose rows = %d", len(dose.Rows))
	}
	if dose.Rows[0][0] != "CircleOpt" || dose.Rows[1][0] != "DoseOpt" {
		t.Fatalf("dose labels: %v / %v", dose.Rows[0][0], dose.Rows[1][0])
	}

	greedy := r.ExtensionGreedy()
	if len(greedy.Rows) != 2 {
		t.Fatalf("greedy rows = %d", len(greedy.Rows))
	}
}
