// Package a is most of the module deadcheck's test reads; main_test.go
// says what the check must make of each declaration and why.
package a

import "time"

type Link struct{ sent int }

func NewLink() *Link       { return &Link{sent: 1} }
func (l *Link) Stats() int { return l.sent }

type Pool struct{ n int }

func (p *Pool) Stats() int { return p.n }

func Dead() int { return helper() + unused + deadCfg.Stale }

func helper() int { return 1 }

var unused = fromDeadVar()

func fromDeadVar() int { return 2 }

type Queue interface {
	Len() int
	Pop() int
}

type fifo struct{ items []int }

func NewQueue() Queue { return &fifo{items: []int{1}} }

func (q *fifo) Len() int  { return len(q.items) }
func (q *fifo) Pop() int  { v := q.items[0]; q.items = q.items[1:]; return v }
func (q *fifo) Peek() int { return q.items[0] }

func Render[S interface{ Rows() []string }](s S) int { return len(s.Rows()) }

type Report struct{}

func (Report) Rows() []string { return nil }

type Kind int

func (k Kind) String() string { return "kind" }

func Kept() int { return keptHelper() }

func keptHelper() int { return 3 }

func OnlyBench() int { return 4 }

func TestOnly() {}

// Config exercises the field rule; main_test.go says which fields it
// must list.
type Config struct {
	Rate   int
	Window time.Duration
	Limit  int
	Hits   int
	Sum    int
	Debug  bool
	Name   string `json:"name"`
	Quiet  bool
	Peer   Link
	Stale  int
	Unread int
}

var deadCfg Config

type pair struct{ lo, hi int }

func Use(c *Config) int {
	c.Hits++
	c.Sum += 2
	debug := &c.Debug
	*debug = !c.Quiet
	c.Unread = 0
	p := pair{1, 2}
	return c.Rate + int(c.Window) + c.Limit + c.Hits + c.Sum + len(c.Name) + c.Peer.sent + p.lo + p.hi
}
