package classfile

// CheckAgainstReference lets the external tests (which may import
// workloads) hold verify.go to the reference in verify_ref_test.go.
var CheckAgainstReference = checkAgainstReference

// Spare returns the whole of the assembly buffer the program currently
// holds, so a test can see what a finished body left in it.
func (p *Program) Spare() []BC { return p.spare[:cap(p.spare)] }
