// Command sub is a program of a nested module.
package main

import "example/internal/lib"

func main() { lib.FromNested() }
