package geom

import (
	"errors"
	"math"
	"testing"
)

// TestValidateCloudBound checks the fused validation pass: the same errors
// as ValidateCloud, and the per-dimension absolute bound in the reused
// buffer.
func TestValidateCloudBound(t *testing.T) {
	pts := []Point{{1, -2, 0.5}, {-3, 1, 0}, {0, 0, -4}}
	buf := make([]float64, 0, 8)
	got, err := ValidateCloudBound(pts, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{3, 2, 4}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("bound not written into the supplied buffer")
	}
	for _, bad := range []Point{{math.NaN(), 0, 0}, {0, math.Inf(-1), 0}} {
		if _, err := ValidateCloudBound(append(pts[:2:2], bad), 3, nil); !errors.Is(err, ErrBadCoordinate) {
			t.Fatalf("%v: err = %v, want ErrBadCoordinate", bad, err)
		}
	}
	if _, err := ValidateCloudBound([]Point{{1, 2}}, 3, nil); err == nil || ValidateCloud([]Point{{1, 2}}, 3) == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := ValidateCloudBound(pts, 1, nil); err == nil {
		t.Fatal("d = 1 accepted")
	}
}
