//! A two-pass assembler for the PowerPC-405 subset.
//!
//! The embedded control software of the Optical Flow Demonstrator (main
//! loop plus interrupt service routines) is written in this assembly
//! dialect, assembled to real PowerPC machine words, and executed by the
//! ISS — so the *same* software runs in every simulation configuration,
//! which is exactly the property ReSim preserves and Virtual Multiplexing
//! breaks.
//!
//! ## Dialect
//!
//! * one instruction, directive or `label:` per line; `#` or `;` comments
//! * registers `r0`..`r31`; immediates in decimal or `0x` hex, with `-`
//! * memory operands as `d(ra)`, e.g. `lwz r3, 8(r1)`
//! * branch targets are labels: `b loop`, `beq done`, `bl func`
//! * directives: `.word <v>`, `.space <bytes>`, `.equ NAME, <v>`
//! * pseudo-instructions: `li`, `lis`, `liw` (32-bit load, expands to
//!   `lis`+`ori`), `mr`, `nop`, `slwi`, `srwi`, `halt` (assembles the
//!   ISS trap)

use crate::insn::{Cond, Instr, Spr};
use std::collections::HashMap;
use std::fmt;

/// An assembled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Load address of the first word.
    pub base: u32,
    /// Machine words in memory order.
    pub words: Vec<u32>,
    /// Label/`.equ` symbol table (labels are absolute byte addresses).
    pub symbols: HashMap<String, u32>,
}

impl Program {
    /// The program image as little-endian bytes (matching
    /// `SharedMem::load_bytes`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Address of a label; panics with a clear message if missing.
    pub fn symbol(&self, name: &str) -> u32 {
        *self
            .symbols
            .get(name)
            .unwrap_or_else(|| panic!("no such symbol: {name}"))
    }
}

/// Assembly failure with source line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

struct Ctx<'a> {
    symbols: &'a HashMap<String, u32>,
    line: usize,
}

impl Ctx<'_> {
    fn reg(&self, t: &str) -> Result<u8, AsmError> {
        let t = t.trim();
        if let Some(n) = t.strip_prefix('r').and_then(|s| s.parse::<u8>().ok()) {
            if n < 32 {
                return Ok(n);
            }
        }
        Err(err(self.line, format!("expected register, got '{t}'")))
    }

    fn value(&self, t: &str) -> Result<i64, AsmError> {
        let t = t.trim();
        let (neg, body) = match t.strip_prefix('-') {
            Some(b) => (true, b),
            None => (false, t),
        };
        let v = if let Some(h) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            i64::from_str_radix(h, 16).ok()
        } else if body.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            body.parse::<i64>().ok()
        } else {
            self.symbols.get(body).map(|v| *v as i64)
        };
        match v {
            Some(v) => Ok(if neg { -v } else { v }),
            None => Err(err(self.line, format!("cannot evaluate '{t}'"))),
        }
    }

    fn simm16(&self, t: &str) -> Result<i16, AsmError> {
        let v = self.value(t)?;
        // Accept both signed (-32768..32767) and unsigned-looking
        // (0..65535) writings of a 16-bit field.
        if (-(1 << 15)..(1 << 16)).contains(&v) {
            Ok(v as u16 as i16)
        } else {
            Err(err(
                self.line,
                format!("immediate {v} does not fit 16 bits"),
            ))
        }
    }

    fn uimm16(&self, t: &str) -> Result<u16, AsmError> {
        let v = self.value(t)?;
        if (0..(1 << 16)).contains(&v) {
            Ok(v as u16)
        } else {
            Err(err(
                self.line,
                format!("immediate {v} does not fit unsigned 16 bits"),
            ))
        }
    }

    fn u5(&self, t: &str) -> Result<u8, AsmError> {
        let v = self.value(t)?;
        if (0..32).contains(&v) {
            Ok(v as u8)
        } else {
            Err(err(self.line, format!("{v} does not fit 5 bits")))
        }
    }

    fn dcrn(&self, t: &str) -> Result<u16, AsmError> {
        let v = self.value(t)?;
        if (0..(1 << 10)).contains(&v) {
            Ok(v as u16)
        } else {
            Err(err(
                self.line,
                format!("DCR number {v} does not fit 10 bits"),
            ))
        }
    }

    /// Parse `d(ra)`.
    fn mem(&self, t: &str) -> Result<(i16, u8), AsmError> {
        let t = t.trim();
        let open = t
            .find('(')
            .ok_or_else(|| err(self.line, format!("expected d(ra), got '{t}'")))?;
        if !t.ends_with(')') {
            return Err(err(self.line, format!("expected d(ra), got '{t}'")));
        }
        let d = if t[..open].trim().is_empty() {
            0
        } else {
            self.simm16(&t[..open])?
        };
        let ra = self.reg(&t[open + 1..t.len() - 1])?;
        Ok((d, ra))
    }

    fn spr(&self, t: &str) -> Result<Spr, AsmError> {
        match t.trim().to_ascii_lowercase().as_str() {
            "lr" => Ok(Spr::Lr),
            "ctr" => Ok(Spr::Ctr),
            "srr0" => Ok(Spr::Srr0),
            "srr1" => Ok(Spr::Srr1),
            other => Err(err(self.line, format!("unknown SPR '{other}'"))),
        }
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find(['#', ';']) {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Words a source line will occupy (pass 1). `None` = not an instruction.
fn line_words(mnemonic: &str, rest: &str) -> usize {
    match mnemonic {
        ".equ" => 0,
        ".word" => 1,
        ".space" => {
            let n: usize = rest.trim().parse().unwrap_or(0);
            n.div_ceil(4)
        }
        "liw" => 2,
        _ => 1,
    }
}

fn split_operands(rest: &str) -> Vec<String> {
    // Split on commas that are not inside parentheses (there are none in
    // this dialect, so a plain split suffices).
    rest.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Assemble `src` for loading at byte address `base`.
pub fn assemble(src: &str, base: u32) -> Result<Program, AsmError> {
    let mut symbols: HashMap<String, u32> = HashMap::new();

    // Pass 1: collect labels and .equ values.
    let mut pc = base;
    for (lineno, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut body = line;
        while let Some(colon) = body.find(':') {
            let (label, rest) = body.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                break;
            }
            if symbols.insert(label.to_string(), pc).is_some() {
                return Err(err(lineno + 1, format!("duplicate label '{label}'")));
            }
            body = rest[1..].trim();
        }
        if body.is_empty() {
            continue;
        }
        let (mnemonic, rest) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
        let mnemonic = mnemonic.to_ascii_lowercase();
        if mnemonic == ".equ" {
            let ops = split_operands(rest);
            if ops.len() != 2 {
                return Err(err(lineno + 1, ".equ NAME, value"));
            }
            let ctx = Ctx {
                symbols: &symbols,
                line: lineno + 1,
            };
            let v = ctx.value(&ops[1])?;
            symbols.insert(ops[0].clone(), v as u32);
        } else {
            pc += 4 * line_words(&mnemonic, rest) as u32;
        }
    }

    // Pass 2: encode.
    let mut words = Vec::new();
    let mut pc = base;
    for (lineno, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut body = line;
        while let Some(colon) = body.find(':') {
            let (label, rest) = body.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                break;
            }
            body = rest[1..].trim();
        }
        if body.is_empty() {
            continue;
        }
        let (mnemonic, rest) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
        let mnemonic = mnemonic.to_ascii_lowercase();
        let ops = split_operands(rest);
        let ctx = Ctx {
            symbols: &symbols,
            line: lineno + 1,
        };
        let n = ops.len();
        let want = |k: usize| -> Result<(), AsmError> {
            if n == k {
                Ok(())
            } else {
                Err(err(
                    lineno + 1,
                    format!("{mnemonic} takes {k} operands, got {n}"),
                ))
            }
        };
        let rel_target = |tok: &str, width_ok: &dyn Fn(i64) -> bool| -> Result<i64, AsmError> {
            let target = ctx.value(tok)?;
            let d = target - pc as i64;
            if !width_ok(d) {
                return Err(err(
                    lineno + 1,
                    format!("branch displacement {d} out of range"),
                ));
            }
            if d % 4 != 0 {
                return Err(err(
                    lineno + 1,
                    "branch target not word aligned".to_string(),
                ));
            }
            Ok(d)
        };
        let mut emit = |i: Instr| words.push(i.encode());
        match mnemonic.as_str() {
            ".word" => {
                want(1)?;
                words.push(ctx.value(&ops[0])? as u32);
            }
            ".space" => {
                want(1)?;
                let bytes = ctx.value(&ops[0])? as usize;
                words.resize(words.len() + bytes.div_ceil(4), 0);
            }
            ".equ" => continue,
            // --- pseudo-instructions ---
            "li" => {
                want(2)?;
                emit(Instr::Addi {
                    rt: ctx.reg(&ops[0])?,
                    ra: 0,
                    simm: ctx.simm16(&ops[1])?,
                });
            }
            "lis" => {
                want(2)?;
                emit(Instr::Addis {
                    rt: ctx.reg(&ops[0])?,
                    ra: 0,
                    simm: ctx.simm16(&ops[1])?,
                });
            }
            "liw" => {
                want(2)?;
                let rt = ctx.reg(&ops[0])?;
                let v = ctx.value(&ops[1])? as u32;
                emit(Instr::Addis {
                    rt,
                    ra: 0,
                    simm: (v >> 16) as i16,
                });
                emit(Instr::Ori {
                    ra: rt,
                    rs: rt,
                    uimm: (v & 0xFFFF) as u16,
                });
            }
            "mr" => {
                want(2)?;
                let ra = ctx.reg(&ops[0])?;
                let rs = ctx.reg(&ops[1])?;
                emit(Instr::Or { ra, rs, rb: rs });
            }
            "nop" => {
                want(0)?;
                emit(Instr::Ori {
                    ra: 0,
                    rs: 0,
                    uimm: 0,
                });
            }
            "slwi" => {
                want(3)?;
                let sh = ctx.u5(&ops[2])?;
                emit(Instr::Rlwinm {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    sh,
                    mb: 0,
                    me: 31 - sh,
                });
            }
            "srwi" => {
                want(3)?;
                let sh = ctx.u5(&ops[2])?;
                emit(Instr::Rlwinm {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    sh: (32 - sh) & 31,
                    mb: sh,
                    me: 31,
                });
            }
            "halt" => {
                want(0)?;
                emit(Instr::Trap);
            }
            // --- real instructions ---
            "addi" => {
                want(3)?;
                emit(Instr::Addi {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    simm: ctx.simm16(&ops[2])?,
                });
            }
            "addis" => {
                want(3)?;
                emit(Instr::Addis {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    simm: ctx.simm16(&ops[2])?,
                });
            }
            "ori" => {
                want(3)?;
                emit(Instr::Ori {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    uimm: ctx.uimm16(&ops[2])?,
                });
            }
            "oris" => {
                want(3)?;
                emit(Instr::Oris {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    uimm: ctx.uimm16(&ops[2])?,
                });
            }
            "xori" => {
                want(3)?;
                emit(Instr::Xori {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    uimm: ctx.uimm16(&ops[2])?,
                });
            }
            "andi." => {
                want(3)?;
                emit(Instr::AndiDot {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    uimm: ctx.uimm16(&ops[2])?,
                });
            }
            "add" => {
                want(3)?;
                emit(Instr::Add {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "subf" => {
                want(3)?;
                emit(Instr::Subf {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "sub" => {
                // sub rt, ra, rb == subf rt, rb, ra
                want(3)?;
                emit(Instr::Subf {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[2])?,
                    rb: ctx.reg(&ops[1])?,
                });
            }
            "mullw" => {
                want(3)?;
                emit(Instr::Mullw {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "divwu" => {
                want(3)?;
                emit(Instr::Divwu {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "neg" => {
                want(2)?;
                emit(Instr::Neg {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                });
            }
            "and" => {
                want(3)?;
                emit(Instr::And {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "or" => {
                want(3)?;
                emit(Instr::Or {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "xor" => {
                want(3)?;
                emit(Instr::Xor {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "slw" => {
                want(3)?;
                emit(Instr::Slw {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "srw" => {
                want(3)?;
                emit(Instr::Srw {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "rlwinm" => {
                want(5)?;
                emit(Instr::Rlwinm {
                    ra: ctx.reg(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                    sh: ctx.u5(&ops[2])?,
                    mb: ctx.u5(&ops[3])?,
                    me: ctx.u5(&ops[4])?,
                });
            }
            "cmpw" => {
                want(2)?;
                emit(Instr::Cmpw {
                    ra: ctx.reg(&ops[0])?,
                    rb: ctx.reg(&ops[1])?,
                });
            }
            "cmpwi" => {
                want(2)?;
                emit(Instr::Cmpwi {
                    ra: ctx.reg(&ops[0])?,
                    simm: ctx.simm16(&ops[1])?,
                });
            }
            "cmplw" => {
                want(2)?;
                emit(Instr::Cmplw {
                    ra: ctx.reg(&ops[0])?,
                    rb: ctx.reg(&ops[1])?,
                });
            }
            "cmplwi" => {
                want(2)?;
                emit(Instr::Cmplwi {
                    ra: ctx.reg(&ops[0])?,
                    uimm: ctx.uimm16(&ops[1])?,
                });
            }
            "lwz" | "lbz" | "stw" | "stb" => {
                want(2)?;
                let r = ctx.reg(&ops[0])?;
                let (d, ra) = ctx.mem(&ops[1])?;
                emit(match mnemonic.as_str() {
                    "lwz" => Instr::Lwz { rt: r, ra, d },
                    "lbz" => Instr::Lbz { rt: r, ra, d },
                    "stw" => Instr::Stw { rs: r, ra, d },
                    _ => Instr::Stb { rs: r, ra, d },
                });
            }
            "lwzx" => {
                want(3)?;
                emit(Instr::Lwzx {
                    rt: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "stwx" => {
                want(3)?;
                emit(Instr::Stwx {
                    rs: ctx.reg(&ops[0])?,
                    ra: ctx.reg(&ops[1])?,
                    rb: ctx.reg(&ops[2])?,
                });
            }
            "b" | "bl" => {
                want(1)?;
                let d = rel_target(&ops[0], &|d| (-(1 << 25)..(1 << 25)).contains(&d))?;
                emit(Instr::B {
                    target: d as i32,
                    link: mnemonic == "bl",
                });
            }
            "beq" | "bne" | "blt" | "bgt" | "bge" | "ble" | "bdnz" => {
                want(1)?;
                let cond = match mnemonic.as_str() {
                    "beq" => Cond::Eq,
                    "bne" => Cond::Ne,
                    "blt" => Cond::Lt,
                    "bgt" => Cond::Gt,
                    "bge" => Cond::Ge,
                    "ble" => Cond::Le,
                    _ => Cond::Dnz,
                };
                let d = rel_target(&ops[0], &|d| (-(1 << 15)..(1 << 15)).contains(&d))?;
                emit(Instr::Bc {
                    cond,
                    target: d as i16,
                    link: false,
                });
            }
            "blr" => {
                want(0)?;
                emit(Instr::Blr);
            }
            "bctr" => {
                want(0)?;
                emit(Instr::Bctr);
            }
            "mtspr" => {
                want(2)?;
                emit(Instr::Mtspr {
                    spr: ctx.spr(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                });
            }
            "mfspr" => {
                want(2)?;
                emit(Instr::Mfspr {
                    rt: ctx.reg(&ops[0])?,
                    spr: ctx.spr(&ops[1])?,
                });
            }
            "mtlr" => {
                want(1)?;
                emit(Instr::Mtspr {
                    spr: Spr::Lr,
                    rs: ctx.reg(&ops[0])?,
                });
            }
            "mflr" => {
                want(1)?;
                emit(Instr::Mfspr {
                    rt: ctx.reg(&ops[0])?,
                    spr: Spr::Lr,
                });
            }
            "mtctr" => {
                want(1)?;
                emit(Instr::Mtspr {
                    spr: Spr::Ctr,
                    rs: ctx.reg(&ops[0])?,
                });
            }
            "mtdcr" => {
                want(2)?;
                emit(Instr::Mtdcr {
                    dcrn: ctx.dcrn(&ops[0])?,
                    rs: ctx.reg(&ops[1])?,
                });
            }
            "mfdcr" => {
                want(2)?;
                emit(Instr::Mfdcr {
                    rt: ctx.reg(&ops[0])?,
                    dcrn: ctx.dcrn(&ops[1])?,
                });
            }
            "mtmsr" => {
                want(1)?;
                emit(Instr::Mtmsr {
                    rs: ctx.reg(&ops[0])?,
                });
            }
            "mfcr" => {
                want(1)?;
                emit(Instr::Mfcr {
                    rt: ctx.reg(&ops[0])?,
                });
            }
            "mtcrf" => {
                // Full-mask form only: `mtcrf rS`.
                want(1)?;
                emit(Instr::Mtcrf {
                    rs: ctx.reg(&ops[0])?,
                });
            }
            "mfmsr" => {
                want(1)?;
                emit(Instr::Mfmsr {
                    rt: ctx.reg(&ops[0])?,
                });
            }
            "rfi" => {
                want(0)?;
                emit(Instr::Rfi);
            }
            "sync" => {
                want(0)?;
                emit(Instr::Sync);
            }
            "isync" => {
                want(0)?;
                emit(Instr::Isync);
            }
            other => return Err(err(lineno + 1, format!("unknown mnemonic '{other}'"))),
        }
        pc = base + 4 * words.len() as u32;
    }
    Ok(Program {
        base,
        words,
        symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Instr;

    #[test]
    fn labels_and_branches_resolve() {
        let p = assemble(
            "start: li r3, 0\nloop: addi r3, r3, 1\n cmpwi r3, 5\n bne loop\n halt\n",
            0x1000,
        )
        .unwrap();
        assert_eq!(p.symbol("start"), 0x1000);
        assert_eq!(p.symbol("loop"), 0x1004);
        // The bne at 0x100C targets 0x1004 => displacement -8.
        match Instr::decode(p.words[3]) {
            Instr::Bc { target, .. } => assert_eq!(target, -8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pseudo_instructions_expand() {
        let p = assemble("liw r4, 0xDEADBEEF\nmr r5, r4\nnop\nhalt\n", 0).unwrap();
        assert_eq!(p.words.len(), 5);
        assert_eq!(
            Instr::decode(p.words[0]),
            Instr::Addis {
                rt: 4,
                ra: 0,
                simm: 0xDEADu16 as i16
            }
        );
        assert_eq!(
            Instr::decode(p.words[1]),
            Instr::Ori {
                ra: 4,
                rs: 4,
                uimm: 0xBEEF
            }
        );
        assert_eq!(
            Instr::decode(p.words[2]),
            Instr::Or {
                ra: 5,
                rs: 4,
                rb: 4
            }
        );
        assert_eq!(Instr::decode(p.words[4]), Instr::Trap);
    }

    #[test]
    fn equ_and_word_and_space() {
        let p = assemble(
            ".equ MAGIC, 0x42\n.word MAGIC\nbuf: .space 8\nafter: .word 1\n",
            0x100,
        )
        .unwrap();
        assert_eq!(p.words[0], 0x42);
        assert_eq!(p.symbol("buf"), 0x104);
        assert_eq!(p.symbol("after"), 0x10C);
        assert_eq!(p.words[3], 1);
    }

    /// One instruction per row, assembled alone and decoded back: the
    /// memory-operand forms, then the mnemonics no generated program
    /// uses, with a negative and a hex immediate where one is taken.
    #[test]
    fn memory_operands() {
        let rows = [
            ("lwz r3, 8(r1)", Instr::Lwz { rt: 3, ra: 1, d: 8 }),
            (
                "stw r3, -4(r2)",
                Instr::Stw {
                    rs: 3,
                    ra: 2,
                    d: -4,
                },
            ),
            ("lwz r4, (r5)", Instr::Lwz { rt: 4, ra: 5, d: 0 }),
            (
                "lis r6, -2",
                Instr::Addis {
                    rt: 6,
                    ra: 0,
                    simm: -2,
                },
            ),
            (
                "lis r6, 0x8000",
                Instr::Addis {
                    rt: 6,
                    ra: 0,
                    simm: i16::MIN,
                },
            ),
            (
                "addis r7, r8, -0x12c",
                Instr::Addis {
                    rt: 7,
                    ra: 8,
                    simm: -300,
                },
            ),
            (
                "addis r7, r8, 0x7fff",
                Instr::Addis {
                    rt: 7,
                    ra: 8,
                    simm: 0x7fff,
                },
            ),
            (
                "xori r9, r10, 0xbeef",
                Instr::Xori {
                    ra: 9,
                    rs: 10,
                    uimm: 0xbeef,
                },
            ),
            (
                "subf r11, r12, r13",
                Instr::Subf {
                    rt: 11,
                    ra: 12,
                    rb: 13,
                },
            ),
            ("mfmsr r14", Instr::Mfmsr { rt: 14 }),
            ("sync", Instr::Sync),
            ("isync", Instr::Isync),
            ("halt", Instr::Trap),
            ("bctr", Instr::Bctr),
        ];
        for (text, want) in rows {
            let p = assemble(&format!("{text}\n"), 0).unwrap();
            assert_eq!(p.words.len(), 1, "{text}");
            assert_eq!(Instr::decode(p.words[0]), want, "{text}");
        }
    }

    #[test]
    fn dcr_and_spr_access() {
        let p = assemble(
            ".equ ICAP_CTRL, 0x200\nmtdcr ICAP_CTRL, r3\nmfdcr r4, 0x201\nmflr r0\nmtlr r0\n",
            0,
        )
        .unwrap();
        assert_eq!(
            Instr::decode(p.words[0]),
            Instr::Mtdcr { dcrn: 0x200, rs: 3 }
        );
        assert_eq!(
            Instr::decode(p.words[1]),
            Instr::Mfdcr { rt: 4, dcrn: 0x201 }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bogus"));
        let e = assemble("addi r3, r4\n", 0).unwrap_err();
        assert!(e.msg.contains("3 operands"));
        let e = assemble("b nowhere\n", 0).unwrap_err();
        assert!(e.msg.contains("nowhere"));
        let e = assemble("x: nop\nx: nop\n", 0).unwrap_err();
        assert!(e.msg.contains("duplicate"));
        let e = assemble("li r3, 0x10000\n", 0).unwrap_err();
        assert!(e.msg.contains("16 bits"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# header\n  ; another\n\nnop # trailing\n", 0).unwrap();
        assert_eq!(p.words.len(), 1);
    }

    #[test]
    fn shift_pseudos_match_rlwinm() {
        let p = assemble("slwi r3, r4, 4\nsrwi r5, r6, 8\n", 0).unwrap();
        assert_eq!(
            Instr::decode(p.words[0]),
            Instr::Rlwinm {
                ra: 3,
                rs: 4,
                sh: 4,
                mb: 0,
                me: 27
            }
        );
        assert_eq!(
            Instr::decode(p.words[1]),
            Instr::Rlwinm {
                ra: 5,
                rs: 6,
                sh: 24,
                mb: 8,
                me: 31
            }
        );
    }

    #[test]
    fn to_bytes_is_little_endian() {
        let p = assemble(".word 0x11223344\n", 0).unwrap();
        assert_eq!(p.to_bytes(), vec![0x44, 0x33, 0x22, 0x11]);
    }
}
