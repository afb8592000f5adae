module nexsim

go 1.23
