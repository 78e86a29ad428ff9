package fixture_test

import (
	"testing"

	"fixture/internal/a"
)

func TestRoot(t *testing.T) {
	a.TestOnly()
	a.Use(&a.Config{Limit: 1})
}
