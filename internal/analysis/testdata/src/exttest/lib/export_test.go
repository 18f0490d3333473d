package lib

// N exposes the hidden count to the external lib_test package.
func (t *T) N() int { return t.n }
