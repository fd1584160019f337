package lib

import "testing"

// A test call reaches nothing: test files are never loaded.
func TestUnused(t *testing.T) { Unused() }
