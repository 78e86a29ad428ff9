module fixture

go 1.21
