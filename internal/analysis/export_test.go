package analysis

// SetPoisonFrameArena turns frame-arena poisoning on or off: while it is
// on, every reset fills the recycled stacks and locals chunks with ⊤. Call
// it only while no analysis is running.
func SetPoisonFrameArena(on bool) { poisonFrameArena = on }
