// Fixture stand-in for the real internal/sim round loop: the shape of
// its observer and engine surface, without the engines.
package sim

// Observer mirrors the composed round observer: OnRound is the
// draw-free round hook.
type Observer struct {
	OnRound func(round int64) bool
}

// Engine mirrors the round engine: Step is the one method that draws.
type Engine interface {
	Step(round int)
}

// Rounds stands in for the shared round loop.
func Rounds(e Engine, maxRounds int, observer *Observer) {
	for t := 0; t <= maxRounds; t++ {
		if t > 0 {
			e.Step(t)
		}
		if observer != nil && observer.OnRound != nil && observer.OnRound(int64(t)) {
			return
		}
	}
}
