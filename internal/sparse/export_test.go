package sparse

import "testing"

// What the external tests of this package (package sparse_test, which can
// import the solver stack above it) need of its internals.

const RaceEnabled = raceEnabled

// SetFactorizeHook installs h to be shown every factorization, and removes
// it when the test ends.
func SetFactorizeHook(t testing.TB, h func(a *CSC, cols []int, opts FactorOptions)) {
	factorizeHook = h
	t.Cleanup(func() { factorizeHook = nil })
}

// ReferenceChecker holds factorizations to the reference loop, see
// factorForms.check.
type ReferenceChecker struct{ forms factorForms }

// Check fails t unless both forms of the column loop give the reference's
// factors and error for the columns cols of a. It returns how many columns
// took each branch of the loop (zeros when the factorization failed).
func (c *ReferenceChecker) Check(t testing.TB, label string, a *CSC, cols []int, opts FactorOptions) (singleton, trivial, general int) {
	t.Helper()
	lu, err := c.forms.check(t, label, a, cols, opts)
	if err != nil {
		return 0, 0, 0
	}
	cs := censusOf(lu, selection{a, cols})
	return cs.singleton, cs.trivial, cs.general
}
