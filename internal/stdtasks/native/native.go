// Package native holds the native Go kernels that interpreted tasklets are
// measured against. It imports nothing, so its benchmark's test binary holds
// the kernel and the testing harness and no interpreter: the native loop's
// speed cannot move with what else a binary links in.
package native

// Spin is the spin tasklet's computation, sum of i % 7 for i < iters.
func Spin(iters int64) int64 {
	var acc int64
	for i := int64(0); i < iters; i++ {
		acc += i % 7
	}
	return acc
}
