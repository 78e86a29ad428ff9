package main

import "fixture/internal/a"

func main() { _ = a.OnlyBench() }
