//! A scriptable message-passing mini-language with source-to-source
//! instrumentation — the AIMS / `uinst` analog (§2.1–2.2).
//!
//! The paper's first instrumentation strategy rewrites program *source*,
//! inserting monitoring calls at "an arbitrary level of resolution ranging
//! from function entry/exit to individual assignment statements". Rust
//! workloads can't be rewritten at run time, so this module provides a
//! small interpreted language whose programs are data:
//!
//! ```text
//! fn worker
//!   recv from 0 tag 1 into x
//!   let y = x * 2
//!   send 0 tag 2 y
//! end
//! fn main
//!   if rank == 0
//!     send 1 tag 1 21
//!     recv from 1 tag 2 into r
//!   else
//!     call worker
//!   end
//! end
//! ```
//!
//! [`instrument_source`] is the `uinst` analog: it parses a script,
//! inserts `trace` statements (which execute as probe events) at the
//! requested [`InstrumentLevel`], and prints the transformed source back —
//! a genuine source-to-source pass whose output is again a valid script.
//! The instrumented program computes exactly what the original does; it
//! just generates more history.
#![allow(clippy::unnecessary_to_owned)] // the hand-rolled parser passes owned token slices

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tracedbg_mpsim::task::TaskOp;
use tracedbg_mpsim::{Payload, Prog, Rank, RankProgram, SendMode, SiteId, SiteKey, Tag, TaskView};
use tracedbg_trace::{CollKind, Label};

/// Where the source-to-source pass inserts `trace` statements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstrumentLevel {
    /// At every function entry and exit (gcc `-p` / UserMonitor density).
    Functions,
    /// Before every statement (AIMS's finest resolution).
    Statements,
}

/// Expressions over 64-bit integers.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Const(i64),
    /// A variable reference; `rank` and `nprocs` are builtins.
    Var(String),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Mod(Box<Expr>, Box<Expr>),
}

/// Comparisons for `if` / `while`.
#[derive(Clone, Debug, PartialEq)]
pub enum Cond {
    Eq(Expr, Expr),
    Ne(Expr, Expr),
    Lt(Expr, Expr),
}

/// One statement, tagged with its source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub line: u32,
    pub kind: StmtKind,
    /// First of the site slots the parser gave this statement (a `call`
    /// owns two: itself and the callee's scope; slot 0 is the root's).
    /// Dense over the script, so the script holds one key per slot and a
    /// rank caches the `SiteId`s it looked up in a flat table.
    slot: u32,
}

#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// `let x = expr`
    Let { var: String, value: Expr },
    /// `compute expr` — simulated work of that many ns.
    Compute { cost: Expr },
    /// `send dst tag T expr`
    Send { dst: Expr, tag: i32, value: Expr },
    /// `recv from src tag T into x` (src `any` = wildcard)
    Recv {
        src: Option<Expr>,
        tag: Option<i32>,
        var: String,
        /// `<var>_src`, the name the sender's rank is bound under —
        /// spelled out by the parser so binding a message builds no string.
        src_var: String,
    },
    /// `trace "label" expr?` — an instrumentation probe (what the
    /// source-to-source pass inserts).
    Trace { label: String, value: Option<Expr> },
    /// `call f`
    Call { func: String },
    /// `loop i from to ... end` (inclusive start, exclusive end)
    Loop {
        var: String,
        from: Expr,
        to: Expr,
        body: Arc<[Stmt]>,
    },
    /// `if cond ... else ... end`
    If {
        cond: Cond,
        then: Arc<[Stmt]>,
        els: Arc<[Stmt]>,
    },
    /// `barrier`
    Barrier,
}

/// A parsed script: named functions, entry point `main`.
///
/// The function table and every statement body (a function's, a `loop`'s,
/// an `if` branch) are shared and immutable once parsed, and so is the
/// [`Prog`] tree `parse` lowers them to, which is what a rank runs:
/// cloning a script, or building its ranks, copies pointers.
#[derive(Clone)]
pub struct Script {
    pub functions: Arc<BTreeMap<Arc<str>, Arc<[Stmt]>>>,
    /// Each site slot's key (see [`Stmt`]), interned when the script
    /// was parsed; a build names the file ([`SiteKey::scripted`]).
    keys: Arc<[SiteKey]>,
    /// Each rank's root: the scope of `main`.
    main: Prog<ScriptState>,
    /// The lowered body of each function, in `functions` order.
    bodies: Arc<[Prog<ScriptState>]>,
}

impl Script {
    /// The script of `functions`, lowered: each function's body once,
    /// whoever calls it, and a root that enters `main` under the site
    /// `(file, 0, "main")`, slot 0.
    fn lower(functions: BTreeMap<Arc<str>, Arc<[Stmt]>>, site_slots: u32) -> Script {
        let bodies: Arc<[Prog<ScriptState>]> = functions
            .values()
            .map(|body| Lowering(&functions).block(body))
            .collect();
        let main = match functions.keys().position(|f| &**f == "main") {
            Some(ix) => Prog::scope(
                |st: &mut ScriptState, v| (st.site(0, v), [0, 0]),
                bodies[ix].clone(),
            ),
            None => Prog::act(|st: &mut ScriptState, v| {
                st.site(0, v);
                die(0, "unknown function \"main\"")
            }),
        };
        let mut keys = vec![SiteKey::scripted(0, "main"); site_slots as usize];
        for (func, body) in &functions {
            slot_keys(body, func, &mut keys);
        }
        Script {
            functions: Arc::new(functions),
            keys: keys.into(),
            main,
            bodies,
        }
    }
}

impl Default for Script {
    /// The script with no functions; a rank of it dies looking for `main`.
    fn default() -> Self {
        Script::lower(BTreeMap::new(), 1)
    }
}

impl std::fmt::Debug for Script {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Script")
            .field("functions", &self.functions)
            .finish_non_exhaustive()
    }
}

/// Parse / runtime errors.
#[derive(Debug)]
pub struct ScriptError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: u32, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------- parsing

/// Tokenize one expression from a token stream (shunting-free: the grammar
/// is `term (op term)*`, left-associative, no precedence — parenthesize).
fn parse_expr(
    tokens: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    line: u32,
) -> Result<Expr, ScriptError> {
    fn term(
        tokens: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
        line: u32,
    ) -> Result<Expr, ScriptError> {
        let t = tokens
            .next()
            .ok_or_else(|| err(line, "expected expression"))?;
        if t == "(" {
            let e = parse_expr(tokens, line)?;
            match tokens.next() {
                Some(ref c) if c == ")" => Ok(e),
                _ => Err(err(line, "expected ')'")),
            }
        } else if let Ok(n) = t.parse::<i64>() {
            Ok(Expr::Const(n))
        } else if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            Ok(Expr::Var(t))
        } else {
            Err(err(line, format!("bad token {t:?} in expression")))
        }
    }
    let mut lhs = term(tokens, line)?;
    while let Some(op) = tokens.peek().cloned() {
        let combine: fn(Box<Expr>, Box<Expr>) -> Expr = match op.as_str() {
            "+" => Expr::Add,
            "-" => Expr::Sub,
            "*" => Expr::Mul,
            "%" => Expr::Mod,
            _ => break,
        };
        tokens.next();
        let rhs = term(tokens, line)?;
        lhs = combine(Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                // string literal token, kept with quotes
                let mut s = String::from("\"");
                for c2 in chars.by_ref() {
                    s.push(c2);
                    if c2 == '"' {
                        break;
                    }
                }
                out.push(s);
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            '(' | ')' | '+' | '-' | '*' | '%' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            '=' | '!' | '<' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                if c != '<' && chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(format!("{c}="));
                } else {
                    out.push(c.to_string());
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_cond(tokens: Vec<String>, line: u32) -> Result<Cond, ScriptError> {
    // Split on the comparison operator.
    let pos = tokens
        .iter()
        .position(|t| t == "==" || t == "!=" || t == "<")
        .ok_or_else(|| err(line, "expected comparison"))?;
    let op = tokens[pos].clone();
    let mut lhs_toks = tokens[..pos].to_vec().into_iter().peekable();
    let mut rhs_toks = tokens[pos + 1..].to_vec().into_iter().peekable();
    let lhs = parse_expr(&mut lhs_toks, line)?;
    let rhs = parse_expr(&mut rhs_toks, line)?;
    Ok(match op.as_str() {
        "==" => Cond::Eq(lhs, rhs),
        "!=" => Cond::Ne(lhs, rhs),
        "<" => Cond::Lt(lhs, rhs),
        _ => unreachable!(),
    })
}

struct Frame {
    stmts: Vec<Stmt>,
    kind: FrameKind,
    line: u32,
}

enum FrameKind {
    Fn(String),
    Loop { var: String, from: Expr, to: Expr },
    IfThen(Cond),
    IfElse { cond: Cond, then: Arc<[Stmt]> },
}

/// The parser's open blocks, innermost last, and the site slots it has
/// handed out (slot 0, the root's, before any statement).
struct Parser {
    stack: Vec<Frame>,
    site_slots: u32,
}

impl Parser {
    fn open(&mut self, line: u32, kind: FrameKind) {
        self.stack.push(Frame {
            stmts: Vec::new(),
            kind,
            line,
        });
    }

    /// Append the statement that began on `line` to the innermost open
    /// block; `at` is the line being parsed, where a statement with no
    /// block to go into is reported.
    fn push(&mut self, at: u32, line: u32, kind: StmtKind) -> Result<(), ScriptError> {
        let (what, slots) = match kind {
            StmtKind::Loop { .. } | StmtKind::If { .. } => ("block", 1),
            StmtKind::Call { .. } => ("statement", 2),
            _ => ("statement", 1),
        };
        let slot = self.site_slots;
        self.site_slots += slots;
        self.stack
            .last_mut()
            .ok_or_else(|| err(at, format!("{what} outside a function")))?
            .stmts
            .push(Stmt { line, kind, slot });
        Ok(())
    }
}

/// Parse a whole script.
pub fn parse(src: &str) -> Result<Script, ScriptError> {
    let mut functions = BTreeMap::new();
    let mut p = Parser {
        stack: Vec::new(),
        site_slots: 1,
    };
    for (ix, raw) in src.lines().enumerate() {
        let lno = ix as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens = tokenize(line);
        let head = tokens[0].as_str();
        match head {
            "fn" => {
                if p.stack.iter().any(|f| matches!(f.kind, FrameKind::Fn(_))) {
                    return Err(err(lno, "nested fn"));
                }
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(lno, "fn needs a name"))?
                    .clone();
                p.open(lno, FrameKind::Fn(name));
            }
            "end" => {
                let frame = p.stack.pop().ok_or_else(|| err(lno, "stray end"))?;
                let body: Arc<[Stmt]> = frame.stmts.into();
                let kind = match frame.kind {
                    FrameKind::Fn(name) => {
                        functions.insert(Arc::from(name), body);
                        continue;
                    }
                    FrameKind::Loop { var, from, to } => StmtKind::Loop {
                        var,
                        from,
                        to,
                        body,
                    },
                    FrameKind::IfThen(cond) => StmtKind::If {
                        cond,
                        then: body,
                        els: Arc::from([]),
                    },
                    FrameKind::IfElse { cond, then } => StmtKind::If {
                        cond,
                        then,
                        els: body,
                    },
                };
                p.push(lno, frame.line, kind)?;
            }
            "else" => {
                let frame = p.stack.pop().ok_or_else(|| err(lno, "stray else"))?;
                match frame.kind {
                    FrameKind::IfThen(cond) => {
                        let then = frame.stmts.into();
                        p.open(frame.line, FrameKind::IfElse { cond, then });
                    }
                    _ => return Err(err(lno, "else without if")),
                }
            }
            "loop" => {
                // loop <var> <from-expr> <to-expr>
                let var = tokens
                    .get(1)
                    .ok_or_else(|| err(lno, "loop needs a variable"))?
                    .clone();
                let mut it = tokens[2..].to_vec().into_iter().peekable();
                let from = parse_expr(&mut it, lno)?;
                let to = parse_expr(&mut it, lno)?;
                p.open(lno, FrameKind::Loop { var, from, to });
            }
            "if" => {
                let cond = parse_cond(tokens[1..].to_vec(), lno)?;
                p.open(lno, FrameKind::IfThen(cond));
            }
            "let" => {
                // let x = expr
                let var = tokens
                    .get(1)
                    .ok_or_else(|| err(lno, "let needs a variable"))?
                    .clone();
                if tokens.get(2).map(String::as_str) != Some("=") {
                    return Err(err(lno, "let needs '='"));
                }
                let mut it = tokens[3..].to_vec().into_iter().peekable();
                let value = parse_expr(&mut it, lno)?;
                p.push(lno, lno, StmtKind::Let { var, value })?;
            }
            "compute" => {
                let mut it = tokens[1..].to_vec().into_iter().peekable();
                let cost = parse_expr(&mut it, lno)?;
                p.push(lno, lno, StmtKind::Compute { cost })?;
            }
            "send" => {
                // send <dst-expr> tag <n> <value-expr>
                let tag_pos = tokens
                    .iter()
                    .position(|t| t == "tag")
                    .ok_or_else(|| err(lno, "send needs 'tag'"))?;
                let mut dst_it = tokens[1..tag_pos].to_vec().into_iter().peekable();
                let dst = parse_expr(&mut dst_it, lno)?;
                let tag: i32 = tokens
                    .get(tag_pos + 1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lno, "send needs a numeric tag"))?;
                let mut val_it = tokens[tag_pos + 2..].to_vec().into_iter().peekable();
                let value = parse_expr(&mut val_it, lno)?;
                p.push(lno, lno, StmtKind::Send { dst, tag, value })?;
            }
            "recv" => {
                // recv from <src-expr|any> [tag <n>] into <var>
                if tokens.get(1).map(String::as_str) != Some("from") {
                    return Err(err(lno, "recv needs 'from'"));
                }
                let into_pos = tokens
                    .iter()
                    .position(|t| t == "into")
                    .ok_or_else(|| err(lno, "recv needs 'into'"))?;
                let tag_pos = tokens.iter().position(|t| t == "tag");
                let src_end = tag_pos.unwrap_or(into_pos);
                let src = if tokens.get(2).map(String::as_str) == Some("any") {
                    None
                } else {
                    let mut it = tokens[2..src_end].to_vec().into_iter().peekable();
                    Some(parse_expr(&mut it, lno)?)
                };
                let tag = match tag_pos {
                    Some(p) => Some(
                        tokens
                            .get(p + 1)
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| err(lno, "bad tag"))?,
                    ),
                    None => None,
                };
                let var = tokens
                    .get(into_pos + 1)
                    .ok_or_else(|| err(lno, "recv needs a variable after 'into'"))?
                    .clone();
                let src_var = format!("{var}_src");
                let kind = StmtKind::Recv {
                    src,
                    tag,
                    var,
                    src_var,
                };
                p.push(lno, lno, kind)?;
            }
            "trace" => {
                // trace "label" [expr]
                let label = tokens
                    .get(1)
                    .filter(|t| t.starts_with('"') && t.ends_with('"'))
                    .map(|t| t[1..t.len() - 1].to_string())
                    .ok_or_else(|| err(lno, "trace needs a quoted label"))?;
                let value = if tokens.len() > 2 {
                    let mut it = tokens[2..].to_vec().into_iter().peekable();
                    Some(parse_expr(&mut it, lno)?)
                } else {
                    None
                };
                p.push(lno, lno, StmtKind::Trace { label, value })?;
            }
            "call" => {
                let func = tokens
                    .get(1)
                    .ok_or_else(|| err(lno, "call needs a function name"))?
                    .clone();
                p.push(lno, lno, StmtKind::Call { func })?;
            }
            "barrier" => p.push(lno, lno, StmtKind::Barrier)?,
            other => return Err(err(lno, format!("unknown statement {other:?}"))),
        }
    }
    if let Some(f) = p.stack.last() {
        return Err(err(f.line, "unclosed block"));
    }
    if !functions.contains_key("main") {
        return Err(err(0, "no 'fn main'"));
    }
    Ok(Script::lower(functions, p.site_slots))
}

// -------------------------------------------------------------- semantics

/// Why an expression has no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoValue<'e> {
    /// A variable the scope has no value for: never bound (a script error
    /// at run time), or holding data a static walk does not track.
    Unknown(&'e str),
    ModuloByZero,
}

impl std::fmt::Display for NoValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoValue::Unknown(v) => write!(f, "undefined variable {v:?}"),
            NoValue::ModuloByZero => f.write_str("modulo by zero"),
        }
    }
}

/// What an expression sees on one rank — the one definition of SDL
/// arithmetic, shared by the interpreter and the static analysis, so what
/// `lint` / `analyze` predict is what `run` does.
///
/// Values are 64-bit and `+ - *` wrap; `%` truncates toward zero like
/// Rust's and C's (`( 0 - 1 ) % 4` is -1, not 3), and a zero divisor is
/// [`NoValue::ModuloByZero`]. `rank` and `nprocs` are builtins that win
/// over any binding of the same name: `let rank = 0`, a loop index or a
/// `recv … into` called `rank` binds a variable nothing can read.
pub struct Scope<F> {
    pub rank: usize,
    pub nprocs: usize,
    /// The value bound to a user variable, if one is known.
    pub var: F,
}

impl<F: Fn(&str) -> Option<i64>> Scope<F> {
    pub fn eval<'e>(&self, e: &'e Expr) -> Result<i64, NoValue<'e>> {
        Ok(match e {
            Expr::Const(n) => *n,
            Expr::Var(v) => match v.as_str() {
                "rank" => self.rank as i64,
                "nprocs" => self.nprocs as i64,
                _ => (self.var)(v).ok_or(NoValue::Unknown(v))?,
            },
            Expr::Add(a, b) => self.eval(a)?.wrapping_add(self.eval(b)?),
            Expr::Sub(a, b) => self.eval(a)?.wrapping_sub(self.eval(b)?),
            Expr::Mul(a, b) => self.eval(a)?.wrapping_mul(self.eval(b)?),
            Expr::Mod(a, b) => {
                // Divisor first: a zero divisor is the error reported even
                // when the dividend has no value either.
                let d = self.eval(b)?;
                if d == 0 {
                    return Err(NoValue::ModuloByZero);
                }
                self.eval(a)?.wrapping_rem(d)
            }
        })
    }

    pub fn test<'e>(&self, c: &'e Cond) -> Result<bool, NoValue<'e>> {
        let (Cond::Eq(a, b) | Cond::Ne(a, b) | Cond::Lt(a, b)) = c;
        let (a, b) = (self.eval(a)?, self.eval(b)?);
        Ok(match c {
            Cond::Eq(..) => a == b,
            Cond::Ne(..) => a != b,
            Cond::Lt(..) => a < b,
        })
    }
}

// ------------------------------------------------------------- execution

/// One rank's state while it runs the lowered script: its variables, the
/// `SiteId` it found for each site slot on its first visit (`UNKNOWN`
/// until then), each slot's key and the file the build named, and the
/// lowered body of every function.
/// A node cannot hold the tree it is part of, so a `call` fetches its
/// callee's body from here (the recursion idiom of `fib`).
#[derive(Clone)]
struct ScriptState {
    vars: BTreeMap<String, i64>,
    sites: Vec<SiteId>,
    keys: Arc<[SiteKey]>,
    file: Arc<str>,
    bodies: Arc<[Prog<ScriptState>]>,
}

/// Bind `var`, overwriting in place when it already exists.
fn assign(vars: &mut BTreeMap<String, i64>, var: &str, v: i64) {
    match vars.get_mut(var) {
        Some(slot) => *slot = v,
        None => {
            vars.insert(var.to_string(), v);
        }
    }
}

/// A run-time script error kills the rank; the engine reports the panic.
fn die(line: u32, message: impl Into<String>) -> ! {
    panic!("{}", err(line, message))
}

impl ScriptState {
    fn scope<'a>(&'a self, view: &TaskView<'_>) -> Scope<impl Fn(&str) -> Option<i64> + 'a> {
        Scope {
            rank: view.rank.0 as usize,
            nprocs: view.n_ranks,
            var: |v: &str| self.vars.get(v).copied(),
        }
    }

    /// At run time an expression without a value kills the rank.
    fn eval(&self, e: &Expr, line: u32, view: &TaskView<'_>) -> i64 {
        self.scope(view)
            .eval(e)
            .unwrap_or_else(|why| die(line, why.to_string()))
    }

    fn test(&self, c: &Cond, line: u32, view: &TaskView<'_>) -> bool {
        self.scope(view)
            .test(c)
            .unwrap_or_else(|why| die(line, why.to_string()))
    }

    /// The peer rank `e` names for a `send` (`what` = "send to") or a
    /// `recv` ("recv from"); a rank outside the run kills this one.
    fn peer(&self, e: &Expr, what: &str, line: u32, view: &TaskView<'_>) -> Rank {
        let r = self.eval(e, line, view);
        if r < 0 || r as usize >= view.n_ranks {
            die(line, format!("{what} bad rank {r}"));
        }
        Rank(r as u32)
    }

    /// The site of slot `slot`: asked of the run's table on this rank's
    /// first visit, read from its cache after.
    fn site(&mut self, slot: u32, view: &TaskView<'_>) -> SiteId {
        let cached = &mut self.sites[slot as usize];
        if *cached == SiteId::UNKNOWN {
            *cached = view.script_site(&self.file, self.keys[slot as usize]);
        }
        *cached
    }
}

/// Intern the key of every slot the statements of `func` own, a
/// `call`'s second slot under the callee's name.
fn slot_keys(stmts: &[Stmt], func: &str, keys: &mut [SiteKey]) {
    for s in stmts {
        keys[s.slot as usize] = SiteKey::scripted(s.line, func);
        match &s.kind {
            StmtKind::Call { func: callee } => {
                keys[s.slot as usize + 1] = SiteKey::scripted(s.line, callee);
            }
            StmtKind::Loop { body, .. } => slot_keys(body, func, keys),
            StmtKind::If { then, els, .. } => {
                slot_keys(then, func, keys);
                slot_keys(els, func, keys);
            }
            _ => {}
        }
    }
}

/// Lowers the statements of a function of the script's function table
/// (`.0`) to the nodes that run them. Each statement first takes its own
/// site's id, where a visit of the rank always has, so first-use order
/// (which the golden traces pin) holds: a `let`, an `if` or a `loop` too,
/// though they emit no record, and a `call` before its callee's scope
/// site.
struct Lowering<'a>(&'a BTreeMap<Arc<str>, Arc<[Stmt]>>);

impl Lowering<'_> {
    fn block(&self, stmts: &[Stmt]) -> Prog<ScriptState> {
        let mut nodes = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut nodes);
        }
        Prog::seq(nodes)
    }

    /// Append the nodes of `s` to those of its block.
    fn stmt(&self, s: &Stmt, nodes: &mut Vec<Prog<ScriptState>>) {
        let (slot, line) = (s.slot, s.line);
        let site = move |st: &mut ScriptState, v: &TaskView<'_>| st.site(slot, v);
        match &s.kind {
            StmtKind::Let { var, value } => {
                let (var, value) = (var.clone(), value.clone());
                nodes.push(Prog::act(move |st, v| {
                    site(st, v);
                    let x = st.eval(&value, line, v);
                    assign(&mut st.vars, &var, x);
                }));
            }
            StmtKind::Compute { cost } => {
                let cost = cost.clone();
                nodes.push(Prog::op(move |st, v| TaskOp::Compute {
                    site: site(st, v),
                    cost_ns: st.eval(&cost, line, v).max(0) as u64,
                }));
            }
            StmtKind::Send { dst, tag, value } => {
                let (dst, tag, value) = (dst.clone(), Tag(*tag), value.clone());
                nodes.push(Prog::op(move |st, v| TaskOp::Send {
                    site: site(st, v),
                    dst: st.peer(&dst, "send to", line, v),
                    tag,
                    payload: Payload::from_i64(st.eval(&value, line, v)),
                    mode: SendMode::Buffered,
                }));
            }
            StmtKind::Recv {
                src,
                tag,
                var,
                src_var,
            } => {
                let (src, tag) = (src.clone(), tag.map(Tag));
                let (var, src_var) = (var.clone(), src_var.clone());
                nodes.push(Prog::op_bind(
                    move |st, v| TaskOp::Recv {
                        site: site(st, v),
                        src: src.as_ref().map(|e| st.peer(e, "recv from", line, v)),
                        tag,
                    },
                    move |st, input, _| {
                        let m = input.message();
                        let Some(x) = m.payload.to_i64() else {
                            die(line, "non-integer payload")
                        };
                        assign(&mut st.vars, &var, x);
                        // The sender's rank is observable, like MPI_STATUS.
                        assign(&mut st.vars, &src_var, m.src.0 as i64);
                    },
                ));
            }
            StmtKind::Trace { label, value } => {
                let (label, value) = (Label::new(label), value.clone());
                nodes.push(Prog::op(move |st, v| TaskOp::Probe {
                    site: site(st, v),
                    value: value.as_ref().map_or(0, |e| st.eval(e, line, v)),
                    label,
                }));
            }
            StmtKind::Call { func: callee } => {
                let callee: Arc<str> = Arc::from(callee.as_str());
                nodes.push(match self.0.keys().position(|f| *f == callee) {
                    Some(ix) => Prog::scope(
                        move |st, v| {
                            site(st, v);
                            (st.site(slot + 1, v), [0, 0])
                        },
                        Prog::gen(move |st: &mut ScriptState, _| st.bodies[ix].clone()),
                    ),
                    // Reaching the call kills the rank; parsing it does not.
                    None => Prog::act(move |st, v| {
                        site(st, v);
                        die(line, format!("unknown function {callee:?}"))
                    }),
                });
            }
            StmtKind::Loop {
                var,
                from,
                to,
                body,
            } => {
                let (var, from, to) = (var.clone(), from.clone(), to.clone());
                nodes.push(Prog::act(move |st, v| {
                    site(st, v);
                }));
                // The bounds are evaluated once, `from` first; the variable
                // is set before each turn and keeps its last value after.
                nodes.push(Prog::for_range(
                    move |st, v| (st.eval(&from, line, v), st.eval(&to, line, v)),
                    move |st, i| assign(&mut st.vars, &var, i),
                    self.block(body),
                ));
            }
            StmtKind::If { cond, then, els } => {
                let cond = cond.clone();
                nodes.push(Prog::act(move |st, v| {
                    site(st, v);
                }));
                nodes.push(Prog::if_else(
                    move |st, v| st.test(&cond, line, v),
                    self.block(then),
                    self.block(els),
                ));
            }
            StmtKind::Barrier => nodes.push(Prog::op(move |st, v| TaskOp::Collective {
                kind: CollKind::Barrier,
                root: Rank(0),
                payload: Payload::empty(),
                op: None,
                site: site(st, v),
            })),
        }
    }
}

/// Build one engine program per rank, all running the same script (SPMD,
/// like `mpirun`). Every rank starts at the root `parse` lowered, with no
/// variables and an empty site cache; nothing is lowered or interned
/// here: the script's sites were interned when it was parsed, and the
/// run's site table takes `file` as their file. Runtime errors panic the
/// process (reported through the engine as a process panic).
pub fn programs(script: &Script, nprocs: usize, file: &str) -> Vec<RankProgram> {
    assert!(nprocs >= 1);
    let state = ScriptState {
        vars: BTreeMap::new(),
        sites: vec![SiteId::UNKNOWN; script.keys.len()],
        keys: Arc::clone(&script.keys),
        file: Arc::from(file),
        bodies: Arc::clone(&script.bodies),
    };
    (0..nprocs)
        .map(|_| RankProgram::task(state.clone(), script.main.clone()))
        .collect()
}

// --------------------------------------------- source-to-source (uinst)

/// Pretty-print a script back to source text.
pub fn print_script(s: &Script) -> String {
    let mut out = String::new();
    for (name, body) in s.functions.iter() {
        let _ = writeln!(out, "fn {name}");
        print_block(&mut out, body, 1);
        let _ = writeln!(out, "end");
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Const(n) => n.to_string(),
        Expr::Var(v) => v.clone(),
        Expr::Add(a, b) => format!("( {} + {} )", print_expr(a), print_expr(b)),
        Expr::Sub(a, b) => format!("( {} - {} )", print_expr(a), print_expr(b)),
        Expr::Mul(a, b) => format!("( {} * {} )", print_expr(a), print_expr(b)),
        Expr::Mod(a, b) => format!("( {} % {} )", print_expr(a), print_expr(b)),
    }
}

fn print_cond(c: &Cond) -> String {
    match c {
        Cond::Eq(a, b) => format!("{} == {}", print_expr(a), print_expr(b)),
        Cond::Ne(a, b) => format!("{} != {}", print_expr(a), print_expr(b)),
        Cond::Lt(a, b) => format!("{} < {}", print_expr(a), print_expr(b)),
    }
}

fn print_block(out: &mut String, stmts: &[Stmt], depth: usize) {
    for s in stmts {
        indent(out, depth);
        match &s.kind {
            StmtKind::Let { var, value } => {
                let _ = writeln!(out, "let {var} = {}", print_expr(value));
            }
            StmtKind::Compute { cost } => {
                let _ = writeln!(out, "compute {}", print_expr(cost));
            }
            StmtKind::Send { dst, tag, value } => {
                let _ = writeln!(
                    out,
                    "send {} tag {tag} {}",
                    print_expr(dst),
                    print_expr(value)
                );
            }
            StmtKind::Recv { src, tag, var, .. } => {
                let src_s = src.as_ref().map(print_expr).unwrap_or_else(|| "any".into());
                match tag {
                    Some(t) => {
                        let _ = writeln!(out, "recv from {src_s} tag {t} into {var}");
                    }
                    None => {
                        let _ = writeln!(out, "recv from {src_s} into {var}");
                    }
                }
            }
            StmtKind::Trace { label, value } => match value {
                Some(v) => {
                    let _ = writeln!(out, "trace \"{label}\" {}", print_expr(v));
                }
                None => {
                    let _ = writeln!(out, "trace \"{label}\"");
                }
            },
            StmtKind::Call { func } => {
                let _ = writeln!(out, "call {func}");
            }
            StmtKind::Loop {
                var,
                from,
                to,
                body,
            } => {
                let _ = writeln!(out, "loop {var} {} {}", print_expr(from), print_expr(to));
                print_block(out, body, depth + 1);
                indent(out, depth);
                let _ = writeln!(out, "end");
            }
            StmtKind::If { cond, then, els } => {
                let _ = writeln!(out, "if {}", print_cond(cond));
                print_block(out, then, depth + 1);
                if !els.is_empty() {
                    indent(out, depth);
                    let _ = writeln!(out, "else");
                    print_block(out, els, depth + 1);
                }
                indent(out, depth);
                let _ = writeln!(out, "end");
            }
            StmtKind::Barrier => {
                let _ = writeln!(out, "barrier");
            }
        }
    }
}

/// A `trace` statement the instrumenter inserts. What it builds is only
/// ever printed, so its statements own no site slot (they name the
/// root's).
fn probe(line: u32, label: String) -> Stmt {
    Stmt {
        line,
        kind: StmtKind::Trace { label, value: None },
        slot: 0,
    }
}

fn instrument_block(stmts: &[Stmt], level: InstrumentLevel, func: &str) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        if level == InstrumentLevel::Statements && !matches!(s.kind, StmtKind::Trace { .. }) {
            out.push(probe(s.line, format!("@{func}:{}", s.line)));
        }
        let kind = match &s.kind {
            StmtKind::Loop {
                var,
                from,
                to,
                body,
            } => StmtKind::Loop {
                var: var.clone(),
                from: from.clone(),
                to: to.clone(),
                body: instrument_block(body, level, func).into(),
            },
            StmtKind::If { cond, then, els } => StmtKind::If {
                cond: cond.clone(),
                then: instrument_block(then, level, func).into(),
                els: instrument_block(els, level, func).into(),
            },
            other => other.clone(),
        };
        out.push(Stmt { kind, ..*s });
    }
    out
}

/// The `uinst` analog: parse `src`, insert `trace` instrumentation at the
/// requested level, and return the transformed source (which parses and
/// runs like any hand-written script).
pub fn instrument_source(src: &str, level: InstrumentLevel) -> Result<String, ScriptError> {
    let script = parse(src)?;
    let mut functions = BTreeMap::new();
    for (name, body) in script.functions.iter() {
        // Function-entry instrumentation (both levels), like the mcount →
        // UserMonitor call in the prologue.
        let mut new_body = vec![probe(0, format!("enter {name}"))];
        new_body.extend(instrument_block(body, level, name));
        new_body.push(probe(0, format!("exit {name}")));
        functions.insert(name.clone(), new_body.into());
    }
    // The inserted probes own no slot of their own (see `probe`).
    let slots = script.keys.len() as u32;
    Ok(print_script(&Script::lower(functions, slots)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, RecorderConfig};
    use tracedbg_trace::EventKind;

    const PINGPONG: &str = r#"
fn worker
  recv from 0 tag 1 into x
  let y = x * 2
  send 0 tag 2 y
end
fn main
  if rank == 0
    loop w 1 nprocs
      send w tag 1 ( w + 10 )
    end
    loop w 1 nprocs
      recv from any tag 2 into r
      trace "reply" r
    end
  else
    call worker
  end
end
"#;

    fn run_script(src: &str, nprocs: usize) -> tracedbg_trace::TraceStore {
        let script = parse(src).expect("parse");
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs(&script, nprocs, "test.script"),
        );
        let out = e.run();
        assert!(out.is_completed(), "{out:?}");
        e.trace_store()
    }

    #[test]
    fn parse_and_run_pingpong() {
        let store = run_script(PINGPONG, 4);
        // 3 sends out, 3 replies.
        assert_eq!(store.of_kind(EventKind::Send).len(), 6);
        let replies: Vec<i64> = store
            .records()
            .iter()
            .filter(|r| r.label.map(Label::as_str) == Some("reply"))
            .map(|r| r.args[0])
            .collect();
        let mut sorted = replies.clone();
        sorted.sort();
        assert_eq!(sorted, vec![22, 24, 26]);
    }

    /// `parse` lowers a script once: a clone shares the parsed and the
    /// lowered bodies, and `programs` builds no tree — every rank runs the
    /// script's own lowered bodies.
    #[test]
    fn clones_and_programs_share_the_parsed_bodies() {
        let script = parse(PINGPONG).unwrap();
        let copy = script.clone();
        assert!(Arc::ptr_eq(&script.functions, &copy.functions));
        assert!(Arc::ptr_eq(&script.bodies, &copy.bodies));
        let before = Arc::strong_count(&script.bodies);
        let ranks = programs(&script, 4, "test.script");
        assert_eq!(Arc::strong_count(&script.bodies), before + 4);
        assert_eq!(
            Arc::strong_count(&script.functions),
            2,
            "ranks hold no statement"
        );
        drop(ranks);
        assert_eq!(Arc::strong_count(&script.bodies), before);
    }

    /// A site key is its text: parsing the same source again interns the
    /// same keys, and the file is the run's, so one parse runs under any
    /// name.
    #[test]
    fn parses_share_keys_and_builds_name_the_file() {
        let (a, b) = (parse(PINGPONG).unwrap(), parse(PINGPONG).unwrap());
        assert_eq!(a.keys, b.keys);
        for file in ["one.script", "two.script"] {
            let mut e = Engine::launch(
                EngineConfig::with_recorder(RecorderConfig::full()),
                programs(&a, 3, file),
            );
            assert!(e.run().is_completed());
            let sites = e.sites().snapshot();
            assert!(!sites.is_empty());
            assert!(sites.iter().all(|loc| loc.file == file), "{sites:?}");
        }
    }

    /// Sites are interned in first-use order across ranks, and a rank asks
    /// the shared table on its first visit to a statement only. Here the
    /// two ranks reach the branches of the `if` in opposite orders; the
    /// table is the one every earlier build produced.
    #[test]
    fn first_use_site_order_is_pinned() {
        let src = "\
fn tick
  trace \"tick\" rank
end
fn main
  loop i 0 2
    if ( ( i + rank ) % 2 ) == 0
      let a = i
      call tick
    else
      compute 10
    end
  end
  barrier
end
";
        let script = parse(src).expect("parse");
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs(&script, 2, "order.script"),
        );
        assert!(e.run().is_completed());
        let sites: Vec<String> = e.sites().snapshot().iter().map(|l| l.to_string()).collect();
        assert_eq!(
            sites,
            [
                "order.script:0:main",
                "order.script:5:main",
                "order.script:6:main",
                "order.script:7:main",
                "order.script:8:main",
                "order.script:8:tick",
                "order.script:2:tick",
                "order.script:10:main",
                "order.script:13:main",
            ]
        );
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = parse("fn main\n  bogus 1 2\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"), "{e}");
        assert!(parse("fn main\n  let x = 1\n").is_err(), "unclosed");
        assert!(parse("fn other\nend\n").is_err(), "missing main");
    }

    #[test]
    fn arithmetic_and_builtins() {
        let src = r#"
fn main
  let a = ( 2 + 3 ) * 4
  trace "a" a
  let b = ( a % 7 )
  trace "b" b
  trace "me" rank
  trace "world" nprocs
end
"#;
        let store = run_script(src, 2);
        let probe = |label: &str| -> Vec<i64> {
            store
                .records()
                .iter()
                .filter(|r| r.label.map(Label::as_str) == Some(label))
                .map(|r| r.args[0])
                .collect()
        };
        assert_eq!(probe("a"), vec![20, 20]);
        assert_eq!(probe("b"), vec![6, 6]);
        let mut me = probe("me");
        me.sort();
        assert_eq!(me, vec![0, 1]);
        assert_eq!(probe("world"), vec![2, 2]);
    }

    /// The evaluator on rank 2 of 4 with `x = 7` bound.
    fn eval(expr: &str) -> Result<i64, String> {
        let script = parse(&format!("fn main\n  let v = {expr}\nend\n")).expect("parse");
        let StmtKind::Let { value, .. } = &script.functions["main"][0].kind else {
            unreachable!("the statement is a let");
        };
        let scope = Scope {
            rank: 2,
            nprocs: 4,
            var: |v: &str| (v == "x").then_some(7),
        };
        scope.eval(value).map_err(|why| why.to_string())
    }

    #[test]
    fn arithmetic_wraps_and_modulo_truncates() {
        assert_eq!(eval("( 0 - 1 ) % 4"), Ok(-1), "truncating, not Euclidean");
        assert_eq!(eval("7 % ( 0 - 4 )"), Ok(3));
        assert_eq!(eval("( rank - 3 ) % nprocs"), Ok(-1));
        assert_eq!(eval("9223372036854775807 + 1"), Ok(i64::MIN));
        assert_eq!(eval("( 0 - 9223372036854775807 ) - 2"), Ok(i64::MAX));
        assert_eq!(eval("9223372036854775807 * 2"), Ok(-2));
        // i64::MIN % -1 overflows in hardware; it is 0.
        assert_eq!(
            eval("( ( 0 - 9223372036854775807 ) - 1 ) % ( 0 - 1 )"),
            Ok(0)
        );
    }

    #[test]
    fn values_an_expression_cannot_have() {
        assert_eq!(eval("x % ( rank - 2 )"), Err("modulo by zero".into()));
        assert_eq!(eval("y + 1"), Err("undefined variable \"y\"".into()));
        // The divisor is evaluated first, so its error wins.
        assert_eq!(eval("y % 0"), Err("modulo by zero".into()));
        assert_eq!(eval("1 % y"), Err("undefined variable \"y\"".into()));
    }

    #[test]
    fn builtins_win_over_bindings() {
        let src = r#"
fn main
  let rank = 40
  loop nprocs 7 8
    trace "me" rank
    trace "world" nprocs
  end
end
"#;
        let store = run_script(src, 2);
        let probe = |label: &str| -> Vec<i64> {
            let mut v: Vec<i64> = store
                .records()
                .iter()
                .filter(|r| r.label.map(Label::as_str) == Some(label))
                .map(|r| r.args[0])
                .collect();
            v.sort();
            v
        };
        assert_eq!(probe("me"), vec![0, 1]);
        assert_eq!(probe("world"), vec![2, 2]);
    }

    #[test]
    fn barrier_statement_works() {
        let src = r#"
fn main
  compute ( ( rank + 1 ) * 1000 )
  barrier
  trace "past"
end
"#;
        let store = run_script(src, 3);
        assert_eq!(
            store
                .records()
                .iter()
                .filter(|r| matches!(r.kind, EventKind::Collective(_)))
                .count(),
            3
        );
    }

    #[test]
    fn roundtrip_print_parse() {
        let script = parse(PINGPONG).unwrap();
        let printed = print_script(&script);
        let reparsed = parse(&printed).expect("printed source parses");
        // Line numbers differ; compare structure via a second print.
        assert_eq!(printed, print_script(&reparsed));
    }

    #[test]
    fn uinst_function_level_adds_enter_exit() {
        let instrumented = instrument_source(PINGPONG, InstrumentLevel::Functions).unwrap();
        assert!(
            instrumented.contains("trace \"enter worker\""),
            "{instrumented}"
        );
        assert!(
            instrumented.contains("trace \"exit main\""),
            "{instrumented}"
        );
        // The instrumented program still computes the same replies.
        let store = run_script(&instrumented, 4);
        let mut replies: Vec<i64> = store
            .records()
            .iter()
            .filter(|r| r.label.map(Label::as_str) == Some("reply"))
            .map(|r| r.args[0])
            .collect();
        replies.sort();
        assert_eq!(replies, vec![22, 24, 26]);
    }

    #[test]
    fn statement_level_generates_more_history() {
        let fn_level = instrument_source(PINGPONG, InstrumentLevel::Functions).unwrap();
        let stmt_level = instrument_source(PINGPONG, InstrumentLevel::Statements).unwrap();
        let probes = |src: &str| {
            run_script(src, 4)
                .records()
                .iter()
                .filter(|r| r.kind == EventKind::Probe)
                .count()
        };
        let base = probes(PINGPONG);
        let f = probes(&fn_level);
        let s = probes(&stmt_level);
        assert!(base < f, "function-level adds probes: {base} vs {f}");
        assert!(f < s, "statement-level adds more: {f} vs {s}");
    }

    #[test]
    fn runtime_error_reports_as_panic() {
        let src = "fn main\n  send 99 tag 1 0\nend\n";
        let script = parse(src).unwrap();
        let mut e = Engine::launch(
            EngineConfig::with_recorder(RecorderConfig::full()),
            programs(&script, 2, "bad.script"),
        );
        match e.run() {
            tracedbg_mpsim::RunOutcome::Panicked { message, .. } => {
                assert!(message.contains("bad rank"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recv_status_variable() {
        let src = r#"
fn main
  if rank == 0
    recv from any tag 5 into v
    trace "from" v_src
  else
    send 0 tag 5 rank
  end
end
"#;
        let store = run_script(src, 2);
        let from: Vec<i64> = store
            .records()
            .iter()
            .filter(|r| r.label.map(Label::as_str) == Some("from"))
            .map(|r| r.args[0])
            .collect();
        assert_eq!(from, vec![1]);
    }
}
