package critpath

// SetMaxStepsPerInst shrinks the defensive walk bound so tests can force
// the truncation path; it returns a restore function.
func SetMaxStepsPerInst(n int64) (restore func()) {
	old := maxStepsPerInst
	maxStepsPerInst = n
	return func() { maxStepsPerInst = old }
}

// NthSmallest exposes the median selection for its differential test.
var NthSmallest = nthSmallest
