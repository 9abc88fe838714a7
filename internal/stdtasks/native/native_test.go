package native

import "testing"

func TestSpin(t *testing.T) {
	for _, c := range []struct{ iters, want int64 }{{0, 0}, {1, 0}, {7, 21}, {10, 21 + 0 + 1 + 2}} {
		if got := Spin(c.iters); got != c.want {
			t.Errorf("Spin(%d) = %d, want %d", c.iters, got, c.want)
		}
	}
}

// BenchmarkE1_SpinNative is E1's native side: the spin kernel in plain Go,
// 100 k iterations, against which BenchmarkE1_SpinVM (the repository root)
// is quoted.
func BenchmarkE1_SpinNative(b *testing.B) {
	const iters = 100_000
	for i := 0; i < b.N; i++ {
		sink = Spin(iters)
	}
}

// sink keeps the compiler from dropping the benchmarked call.
var sink int64
