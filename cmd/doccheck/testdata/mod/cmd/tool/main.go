// Command tool runs the API.
package main

import "example/qnet"

func main() { println(qnet.Run()) }
