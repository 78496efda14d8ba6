package classfile

import (
	"fmt"
	"strings"
)

// Disassemble renders a method's bytecode as a javap-style listing,
// including the exception table. Branch targets are shown as @pc.
func (m *Method) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  locals=%d stack=%d", m.Sig(), m.MaxLocals, m.MaxStack)
	switch {
	case m.IsNative():
		fmt.Fprintf(&b, "  [native %s]\n", m.NativeTag)
		return b.String()
	case m.IsAbstract():
		fmt.Fprintf(&b, "  [abstract]\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n")
	for pc := range m.Code {
		fmt.Fprintf(&b, "%4d: %s\n", pc, m.Code[pc].describe())
	}
	if len(m.Handlers) > 0 {
		fmt.Fprintf(&b, "  exception table:\n")
		for _, h := range m.Handlers {
			typ := "any"
			if h.Type != nil {
				typ = h.Type.Name
			}
			fmt.Fprintf(&b, "    [%d,%d) -> @%d  %s\n", h.From, h.To, h.Target, typ)
		}
	}
	return b.String()
}

// describe formats one structured bytecode instruction.
func (bc *BC) describe() string {
	switch bc.Op {
	case BCConstI:
		return fmt.Sprintf("%-14s %d", bc.Op, bc.A)
	case BCConstL:
		return fmt.Sprintf("%-14s %d", bc.Op, int64(bc.W))
	case BCConstF, BCConstD:
		return fmt.Sprintf("%-14s %#x", bc.Op, bc.W)
	case BCConstStr:
		return fmt.Sprintf("%-14s %q", bc.Op, bc.Str())
	case BCLoadI, BCLoadL, BCLoadF, BCLoadD, BCLoadRef,
		BCStoreI, BCStoreL, BCStoreF, BCStoreD, BCStoreRef:
		return fmt.Sprintf("%-14s %d", bc.Op, bc.A)
	case BCInc:
		return fmt.Sprintf("%-14s %d, %+d", bc.Op, bc.A, bc.B)
	case BCGetField, BCPutField, BCGetStatic, BCPutStatic:
		return fmt.Sprintf("%-14s %s", bc.Op, bc.Field())
	case BCInvokeVirtual, BCInvokeSpecial, BCInvokeStatic, BCInvokeInterface:
		return fmt.Sprintf("%-14s %s", bc.Op, bc.Method().Sig())
	case BCNew, BCANewArray, BCInstanceOf, BCCheckCast:
		return fmt.Sprintf("%-14s %s", bc.Op, bc.Class().Name)
	case BCNewArray, BCALoad, BCAStore:
		return fmt.Sprintf("%-14s %s", bc.Op, bc.Kind)
	case BCTableSwitch:
		sw := bc.Switch()
		tg := make([]string, len(sw.Targets))
		for i, t := range sw.Targets {
			tg[i] = fmt.Sprintf("@%d", t)
		}
		return fmt.Sprintf("%-14s low=%d [%s] default=@%d",
			bc.Op, bc.A, strings.Join(tg, " "), bc.Target)
	case BCLookupSwitch:
		sw := bc.Switch()
		pairs := make([]string, len(sw.Keys))
		for i, k := range sw.Keys {
			pairs[i] = fmt.Sprintf("%d:@%d", k, sw.Targets[i])
		}
		return fmt.Sprintf("%-14s {%s} default=@%d",
			bc.Op, strings.Join(pairs, " "), bc.Target)
	default:
		if bc.Op.IsBranch() {
			return fmt.Sprintf("%-14s @%d", bc.Op, bc.Target)
		}
		return bc.Op.String()
	}
}
