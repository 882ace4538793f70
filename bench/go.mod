module jackpine/bench

go 1.22

require jackpine v0.0.0

replace jackpine => ../
