package a

type Link struct{ sent int }

func NewLink() *Link       { return &Link{} }
func (l *Link) Stats() int { return l.sent }

type Pool struct{ n int }

func (p *Pool) Stats() int { return p.n }

func Dead() int { return helper() + unused }

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
