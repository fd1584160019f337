// Command tool is the fixture module's artifact: every function in a
// main package is a root.
package main

import (
	"fmt"

	"unreached/internal/lib"
)

func main() {
	lib.Called()
	f := lib.T{}.Reached // a method value, never called here
	_ = f
	fmt.Println(lib.Map([]int{1}, double), lib.Box[string]{}.Get(), lib.T{})
}

func double(x int) int { return 2 * x }
