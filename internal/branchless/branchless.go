// Package branchless holds arithmetic for the simulators' hot loops that
// compiles without data-dependent branches.
package branchless

// Max returns the larger of two cycles, which must differ by less than
// 2^63, without a branch. The compiler turns max into a compare and
// jump when its result feeds a load address, as an issue cycle does,
// and on data-dependent comparisons that jump mispredicts often enough
// to dominate a program-order pass.
func Max[T ~int | ~int64](a, b T) T {
	d := a - b
	return a - d&(d>>63)
}
