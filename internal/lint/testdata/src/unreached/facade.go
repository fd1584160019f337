// Package unreached is the facade of the unreached analyzer's fixture
// module: every function declared here is a root, but the types it
// re-exports lend their methods nothing.
package unreached

import "unreached/internal/lib"

// Aliased re-exports lib.Aliased.
type Aliased = lib.Aliased

// Facade is a root.
func Facade() { lib.Facaded() }
