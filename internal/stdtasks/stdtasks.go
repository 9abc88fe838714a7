// Package stdtasks provides the standard TCL tasklet programs used by the
// examples, experiments and benchmarks: compute kernels of the kinds the
// Tasklet paper's motivating applications need (fractal rendering, number
// theory, Monte-Carlo simulation, linear algebra, text processing).
//
// Each program is exposed as compiled bytecode plus a native Go reference
// implementation, so tests can verify that distributed execution produces
// exactly the result local execution would.
package stdtasks

import (
	"fmt"
	"strings"

	"repro/internal/stdtasks/native"
	"repro/internal/tasklang"
	"repro/internal/tvm"
)

// Sources of the standard tasklets, by name.
var Sources = map[string]string{
	// Mandelbrot counts iterations for a W pixels-wide row of the set at
	// row y of h total rows, escape radius 2, max iterations mi. Emits one
	// iteration count per pixel and returns the row's total.
	"mandelbrot": `
func main(y int, w int, h int, mi int) int {
	var total int = 0;
	for (var x int = 0; x < w; x = x + 1) {
		var cr float = (float(x) / float(w)) * 3.5 - 2.5;
		var ci float = (float(y) / float(h)) * 2.0 - 1.0;
		var zr float = 0.0;
		var zi float = 0.0;
		var it int = 0;
		while (it < mi && zr*zr + zi*zi <= 4.0) {
			var t float = zr*zr - zi*zi + cr;
			zi = 2.0*zr*zi + ci;
			zr = t;
			it = it + 1;
		}
		emit(it);
		total = total + it;
	}
	return total;
}`,

	// primes counts primes in [lo, hi) by trial division.
	"primes": `
func isPrime(n int) bool {
	if (n < 2) { return false; }
	if (n % 2 == 0) { return n == 2; }
	for (var d int = 3; d * d <= n; d = d + 2) {
		if (n % d == 0) { return false; }
	}
	return true;
}
func main(lo int, hi int) int {
	var count int = 0;
	for (var n int = lo; n < hi; n = n + 1) {
		if (isPrime(n)) { count = count + 1; }
	}
	return count;
}`,

	// montecarlo estimates pi from `samples` pseudo-random points. The
	// deterministic seeded rand() keeps replicas vote-compatible.
	"montecarlo": `
func main(samples int) float {
	var hits int = 0;
	for (var i int = 0; i < samples; i = i + 1) {
		var x float = rand();
		var y float = rand();
		if (x*x + y*y <= 1.0) { hits = hits + 1; }
	}
	return 4.0 * float(hits) / float(samples);
}`,

	// matmul multiplies one row of an n x n integer matrix (generated from
	// a deterministic formula) against the whole matrix, returning a
	// checksum of the result row. Exercises function calls and nested
	// loops.
	"matmul": `
func cell(i int, j int, n int) int {
	return (i * 31 + j * 17 + 7) % 100;
}
func main(row int, n int) int {
	var check int = 0;
	for (var j int = 0; j < n; j = j + 1) {
		var sum int = 0;
		for (var k int = 0; k < n; k = k + 1) {
			sum = sum + cell(row, k, n) * cell(k, j, n);
		}
		check = (check * 131 + sum) % 1000000007;
	}
	return check;
}`,

	// wordcount counts occurrences of a target word (case-insensitive) in
	// a text shard.
	"wordcount": `
func main(text str, word str) int {
	var words arr = split(lower(text), "");
	var target str = lower(word);
	var count int = 0;
	for (var i int = 0; i < len(words); i = i + 1) {
		if (words[i] == target) { count = count + 1; }
	}
	return count;
}`,

	// grep emits the (0-based) indexes of lines containing the pattern.
	"grep": `
func main(text str, pattern str) int {
	var lines arr = split(text, "\n");
	var hits int = 0;
	for (var i int = 0; i < len(lines); i = i + 1) {
		if (find(lines[i], pattern) >= 0) {
			emit(i);
			hits = hits + 1;
		}
	}
	return hits;
}`,

	// spin burns exactly its argument's worth of loop iterations; the
	// overhead experiments use it as a calibrated synthetic workload.
	"spin": `
func main(iters int) int {
	var acc int = 0;
	for (var i int = 0; i < iters; i = i + 1) {
		acc = acc + i % 7;
	}
	return acc;
}`,

	// noop is the empty tasklet used to measure pure middleware overhead.
	"noop": `
func main() int { return 0; }`,

	// sortcheck generates n pseudo-random keys deterministically, sorts
	// them with insertion sort, and returns an order-sensitive checksum —
	// a heavy mutable-array workload.
	"sortcheck": `
func main(n int, seed int) int {
	var xs arr = [];
	var x int = seed;
	for (var i int = 0; i < n; i += 1) {
		x = (x * 1103515245 + 12345) % 2147483648;
		if (x < 0) { x += 2147483648; }
		xs = push(xs, x % 100000);
	}
	// insertion sort
	for (var i int = 1; i < len(xs); i += 1) {
		var key int = xs[i];
		var j int = i - 1;
		while (j >= 0 && xs[j] > key) {
			xs[j + 1] = xs[j];
			j -= 1;
		}
		xs[j + 1] = key;
	}
	var check int = 0;
	for (var i int = 0; i < len(xs); i += 1) {
		check = (check * 131 + xs[i]) % 1000000007;
	}
	return check;
}`,

	// nqueens counts the solutions of the n-queens problem by recursive
	// backtracking — a deep-call-stack, branchy workload.
	"nqueens": `
func safe(cols arr, row int, col int) bool {
	for (var r int = 0; r < row; r += 1) {
		var c int = cols[r];
		if (c == col) { return false; }
		if (c - col == row - r) { return false; }
		if (col - c == row - r) { return false; }
	}
	return true;
}
func place(cols arr, row int, n int) int {
	if (row == n) { return 1; }
	var count int = 0;
	for (var col int = 0; col < n; col += 1) {
		if (safe(cols, row, col)) {
			cols[row] = col;
			count += place(cols, row + 1, n);
		}
	}
	return count;
}
func main(n int) int {
	var cols arr = [];
	for (var i int = 0; i < n; i += 1) { cols = push(cols, 0); }
	return place(cols, 0, n);
}`,
}

// compiledCache holds compiled programs; initialized lazily and immutable
// afterwards (Compile is cheap, but benches call Program in loops).
var compiledCache = map[string]*tvm.Program{}

// Program returns the compiled bytecode of a named standard tasklet.
func Program(name string) (*tvm.Program, error) {
	if p, ok := compiledCache[name]; ok {
		return p, nil
	}
	src, ok := Sources[name]
	if !ok {
		return nil, fmt.Errorf("stdtasks: unknown tasklet %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	p, err := tasklang.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("stdtasks: %s does not compile: %w", name, err)
	}
	compiledCache[name] = p
	return p, nil
}

// MustProgram is Program for static names; panics on error.
func MustProgram(name string) *tvm.Program {
	p, err := Program(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Bytecode returns the marshalled program.
func Bytecode(name string) ([]byte, error) {
	p, err := Program(name)
	if err != nil {
		return nil, err
	}
	return p.MarshalBinary()
}

// Names lists the standard tasklets in lexical order.
func Names() []string {
	names := make([]string, 0, len(Sources))
	for n := range Sources {
		names = append(names, n)
	}
	// Insertion-sort: tiny n, no extra import.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// ---------- native Go reference implementations ----------

// RefMandelbrot mirrors the mandelbrot tasklet for one row.
func RefMandelbrot(y, w, h, maxIter int) (perPixel []int, total int) {
	perPixel = make([]int, 0, w)
	for x := 0; x < w; x++ {
		cr := (float64(x)/float64(w))*3.5 - 2.5
		ci := (float64(y)/float64(h))*2.0 - 1.0
		zr, zi := 0.0, 0.0
		it := 0
		for it < maxIter && zr*zr+zi*zi <= 4.0 {
			zr, zi = zr*zr-zi*zi+cr, 2.0*zr*zi+ci
			it++
		}
		perPixel = append(perPixel, it)
		total += it
	}
	return perPixel, total
}

// RefPrimes mirrors the primes tasklet.
func RefPrimes(lo, hi int) int {
	isPrime := func(n int) bool {
		if n < 2 {
			return false
		}
		if n%2 == 0 {
			return n == 2
		}
		for d := 3; d*d <= n; d += 2 {
			if n%d == 0 {
				return false
			}
		}
		return true
	}
	count := 0
	for n := lo; n < hi; n++ {
		if isPrime(n) {
			count++
		}
	}
	return count
}

// RefMatmulRow mirrors the matmul tasklet's row checksum.
func RefMatmulRow(row, n int) int64 {
	cell := func(i, j int) int64 {
		return int64((i*31 + j*17 + 7) % 100)
	}
	var check int64
	for j := 0; j < n; j++ {
		var sum int64
		for k := 0; k < n; k++ {
			sum += cell(row, k) * cell(k, j)
		}
		check = (check*131 + sum) % 1000000007
	}
	return check
}

// RefWordCount mirrors the wordcount tasklet.
func RefWordCount(text, word string) int {
	target := strings.ToLower(word)
	count := 0
	for _, w := range strings.Fields(strings.ToLower(text)) {
		if w == target {
			count++
		}
	}
	return count
}

// RefGrep mirrors the grep tasklet, returning matching line indexes.
func RefGrep(text, pattern string) []int {
	var hits []int
	for i, line := range strings.Split(text, "\n") {
		if strings.Contains(line, pattern) {
			hits = append(hits, i)
		}
	}
	return hits
}

// RefSortCheck mirrors the sortcheck tasklet.
func RefSortCheck(n int, seed int64) int64 {
	xs := make([]int64, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x = (x*1103515245 + 12345) % 2147483648
		if x < 0 {
			x += 2147483648
		}
		xs = append(xs, x%100000)
	}
	for i := 1; i < len(xs); i++ {
		key := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > key {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = key
	}
	var check int64
	for _, v := range xs {
		check = (check*131 + v) % 1000000007
	}
	return check
}

// RefNQueens mirrors the nqueens tasklet (solution count).
func RefNQueens(n int) int {
	cols := make([]int, n)
	var place func(row int) int
	place = func(row int) int {
		if row == n {
			return 1
		}
		count := 0
		for col := 0; col < n; col++ {
			ok := true
			for r := 0; r < row; r++ {
				c := cols[r]
				if c == col || c-col == row-r || col-c == row-r {
					ok = false
					break
				}
			}
			if ok {
				cols[row] = col
				count += place(row + 1)
			}
		}
		return count
	}
	return place(0)
}

// RefSpin mirrors the spin tasklet.
func RefSpin(iters int64) int64 { return native.Spin(iters) }

// SpinFuel estimates the fuel the spin tasklet consumes for the given
// iteration count (measured constant per loop iteration plus prologue).
// Experiments use it to generate tasklets of a target cost.
func SpinFuel(iters int64) uint64 {
	// Loop body: 15 fuel per iteration plus a small prologue (see
	// TestSpinFuelEstimate, which pins the constant).
	return uint64(iters)*15 + 10
}
