// Package fixture is the module deadcheck's test reads; main_test.go
// says what the check must make of each declaration and why.
package fixture

import "fixture/internal/a"

type Link = a.Link

func NewLink() *Link { return a.NewLink() }

type Orphan = a.Pool
