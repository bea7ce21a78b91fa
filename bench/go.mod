module cliquesquare/bench

go 1.24

require cliquesquare v0.0.0

replace cliquesquare => ../
