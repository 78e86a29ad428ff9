package fixture_test

import (
	"testing"

	"fixture"
	"fixture/internal/a"
)

func TestFacade(t *testing.T) {
	var l *fixture.Link = fixture.NewLink()
	_ = l
	a.TestOnly()
	a.Use(&a.Config{Limit: 1})
}
