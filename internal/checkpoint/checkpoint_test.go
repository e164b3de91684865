package checkpoint

import "testing"

// TestCellKeyDeterministic proves equal identities hash equal and any
// field change moves the key.
func TestCellKeyDeterministic(t *testing.T) {
	type identity struct {
		Scenario string `json:"scenario"`
		Agent    string `json:"agent"`
		Engine   string `json:"engine"`
		Scale    int    `json:"scale"`
	}
	a := identity{"compress", "jvmti", "jit", 8}
	k1, err := CellKey(a)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := CellKey(a)
	if k1 != k2 {
		t.Fatal("same identity must give the same key")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex sha256", k1)
	}
	for _, b := range []identity{
		{"jess", "jvmti", "jit", 8},
		{"compress", "jni", "jit", 8},
		{"compress", "jvmti", "interp", 8},
		{"compress", "jvmti", "jit", 4},
	} {
		if k, _ := CellKey(b); k == k1 {
			t.Errorf("identity %+v collides with %+v", b, a)
		}
	}
}
