package a

func Moved() int { return 5 }
