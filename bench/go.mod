module sketchprivacy/bench

go 1.22

require sketchprivacy v0.0.0

replace sketchprivacy => ../
