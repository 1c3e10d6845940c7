package bench

import "testing"

func TestExtensionTables(t *testing.T) {
	r := lightRunner(t)

	greedy := r.ExtensionGreedy()
	if len(greedy.Rows) != 2 {
		t.Fatalf("greedy rows = %d", len(greedy.Rows))
	}
}
