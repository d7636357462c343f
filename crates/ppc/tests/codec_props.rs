//! Property tests for the instruction codecs and the assembler.

use ppc::{assemble, Instr};
use proptest::prelude::*;

proptest! {
    /// decode is a normal form: decode(encode(decode(w))) == decode(w)
    /// for ANY 32-bit word.
    #[test]
    fn decode_is_idempotent_under_reencoding(w in any::<u32>()) {
        let once = Instr::decode(w);
        let again = Instr::decode(once.encode());
        prop_assert_eq!(once, again);
    }

    /// Every decodable (non-Illegal) word round-trips through
    /// encode/decode. Generation is biased to the implemented primary
    /// opcodes so the assume rarely rejects.
    #[test]
    fn legal_words_round_trip_bit_exactly(
        op in prop::sample::select(
            vec![10u32, 11, 14, 15, 16, 18, 19, 21, 24, 25, 26, 28, 31, 32, 34, 36, 38]
        ),
        low in 0u32..(1 << 26),
    ) {
        let w = (op << 26) | low;
        let i = Instr::decode(w);
        prop_assume!(!matches!(i, Instr::Illegal(_)));
        // The encoder normalises don't-care fields, so compare decoded
        // forms rather than raw bits.
        prop_assert_eq!(Instr::decode(i.encode()), i);
    }

    /// Assembling N nops plus a label at the end places the label at
    /// base + 4N for any base (the assembler's address arithmetic).
    #[test]
    fn label_addresses_track_the_load_address(n in 0usize..50, base in 0u32..0x100000) {
        let base = base & !3;
        let mut src = String::new();
        for _ in 0..n {
            src.push_str("nop\n");
        }
        src.push_str("end:\n.word 0\n");
        let prog = assemble(&src, base).unwrap();
        prop_assert_eq!(prog.symbol("end"), base + 4 * n as u32);
    }
}
