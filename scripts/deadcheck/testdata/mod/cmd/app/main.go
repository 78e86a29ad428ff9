package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	q := a.NewQueue()
	for q.Len() > 0 {
		q.Pop()
	}
	fmt.Println(a.NewLink().Stats(), &a.Pool{}, a.Render(a.Report{}), a.Kind(1), a.Use(&a.Config{Rate: 1}))
}
