//! Error-tolerant recursive-descent parser for the C subset.
//!
//! Tolerance strategy (resilient-LL, mirroring TreeSitter's behaviour that
//! the paper relies on for live advising): a malformed statement or top-level
//! item is consumed up to the next token in its construct's *recovery set* —
//! tokens that plausibly start the next statement or item — recorded as an
//! `Error` node holding the raw text grouped per source line, and parsing
//! continues. Two guarantees bound the blast radius of any single error:
//!
//! - **Statement-level recovery never crosses the enclosing block**: the
//!   skip stops before a `}` at the statement's own depth, and tracks paren
//!   and brace depth *separately* so a stray closer cannot mis-sync past the
//!   statement boundary.
//! - **Top-level anchoring**: a token sequence that looks like the start of a
//!   function (`type [*]* ident (`) encountered at brace depth ≥ 1 closes
//!   every open block and resumes parsing at top level, so an unclosed brace
//!   in one function never absorbs the functions after it.
//!
//! A third bounds its depth: at most [`MAX_NESTING`] statement, expression
//! and initializer levels are open at once. A construct that would open
//! one more fails like any other malformed one, so its enclosing statement
//! becomes an `Error` node.
//!
//! [`parse_tolerant`] therefore always yields a [`Program`]; [`parse_strict`]
//! additionally fails if any error diagnostic was produced — this is the
//! corpus inclusion gate (paper §V-A1, pycparser's role). The degradation a
//! tolerant parse suffered is summarized by [`ParseOutput::health`].

use crate::ast::*;
use crate::error::{Diagnostic, ParseError, ParseHealth, Severity};
use crate::lexer::{lex, LexOutput};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Most statement, expression and initializer levels a parse keeps open at
/// once. The parser recurses once per level, and so does every pass over
/// the tree it returns (printing, X-SBT, splicing, the interpreter's
/// compile and run), so without a bound a few kilobytes of `(` or `{`
/// overflow the parsing thread's stack and abort the process. A block
/// nested `n` deep opens `n + 1` levels with the statement inside it; a
/// parenthesized subexpression opens two; a binary operator opens one that
/// stays open to the end of its chain, because a left-associative chain
/// folds into a tree as deep as the chain is long.
pub const MAX_NESTING: usize = 128;

/// Result of a tolerant parse: the program plus all diagnostics.
#[derive(Debug, Clone)]
pub struct ParseOutput {
    pub program: Program,
    pub diagnostics: Vec<Diagnostic>,
    /// Number of recovery events (error-node skips and anchor unwinds) the
    /// parser performed to keep going.
    pub recoveries: usize,
}

impl ParseOutput {
    /// True if no error-severity diagnostic was produced and no `Error` node
    /// is present in the tree.
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.is_error()) && !has_error_nodes(&self.program)
    }

    /// Summarize how degraded this parse is: error diagnostics, recovery
    /// events, and the merged source-line ranges the errors touch. Line
    /// numbers refer to the source this output was parsed from, so calling
    /// this on a reparse of printed text yields ranges in canonical space.
    pub fn health(&self) -> ParseHealth {
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut error_count = 0usize;
        for d in &self.diagnostics {
            if d.is_error() {
                error_count += 1;
                spans.push((d.line, d.line));
            }
        }
        collect_error_spans(&self.program, &mut spans);
        ParseHealth::from_parts(error_count, self.recoveries, spans)
    }
}

fn collect_error_spans(p: &Program, out: &mut Vec<(u32, u32)>) {
    fn span_of(line: u32, lines: &[String]) -> (u32, u32) {
        (line, line + lines.len().saturating_sub(1) as u32)
    }
    fn stmt_spans(s: &Stmt, out: &mut Vec<(u32, u32)>) {
        match s {
            Stmt::Error { line, lines } => out.push(span_of(*line, lines)),
            Stmt::Block(b) => b.stmts.iter().for_each(|s| stmt_spans(s, out)),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                stmt_spans(then_branch, out);
                if let Some(e) = else_branch {
                    stmt_spans(e, out);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                stmt_spans(body, out)
            }
            _ => {}
        }
    }
    for item in &p.items {
        match item {
            Item::Error { line, lines } => out.push(span_of(*line, lines)),
            Item::Function(f) => f.body.stmts.iter().for_each(|s| stmt_spans(s, out)),
            Item::Declaration(_) => {}
        }
    }
}

fn has_error_nodes(p: &Program) -> bool {
    fn stmt_has_error(s: &Stmt) -> bool {
        match s {
            Stmt::Error { .. } => true,
            Stmt::Block(b) => b.stmts.iter().any(stmt_has_error),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                stmt_has_error(then_branch)
                    || else_branch.as_deref().map(stmt_has_error).unwrap_or(false)
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                stmt_has_error(body)
            }
            _ => false,
        }
    }
    p.items.iter().any(|i| match i {
        Item::Error { .. } => true,
        Item::Function(f) => f.body.stmts.iter().any(stmt_has_error),
        Item::Declaration(_) => false,
    })
}

/// Parse tolerantly; never fails.
pub fn parse_tolerant(source: &str) -> ParseOutput {
    let lexed = lex(source);
    Parser::new(lexed).parse_program()
}

/// Parse strictly; fails if the source does not fit the subset cleanly.
pub fn parse_strict(source: &str) -> Result<Program, ParseError> {
    let out = parse_tolerant(source);
    if out.is_clean() {
        Ok(out.program)
    } else {
        let mut diagnostics = out.diagnostics;
        if diagnostics.iter().all(|d| !d.is_error()) {
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                1,
                "program contains unparseable regions",
            ));
        }
        Err(ParseError { diagnostics })
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diagnostics: Vec<Diagnostic>,
    /// Names introduced by `typedef`-style usage (we treat any identifier
    /// followed by another identifier at declaration position as a type name;
    /// this set seeds the well-known MPI typedefs).
    known_types: Vec<String>,
    /// Set when an item anchor is seen at brace depth ≥ 1: every open block
    /// unwinds (without consuming the anchor) so the item reparses at top
    /// level. Cleared by `parse_program` after each item.
    anchored: bool,
    /// Count of recovery events (see [`ParseOutput::recoveries`]).
    recoveries: usize,
    /// Levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

/// Accumulates skipped tokens grouped by original source line, so `Error`
/// nodes preserve the region's line structure (including blank lines).
struct LineGroups {
    lines: Vec<String>,
    last_line: Option<u32>,
}

impl LineGroups {
    fn new() -> Self {
        LineGroups {
            lines: Vec::new(),
            last_line: None,
        }
    }

    fn push(&mut self, t: &Token) {
        let rendered = t.kind.render();
        match self.last_line {
            Some(last) if last == t.line => {
                let cur = self.lines.last_mut().expect("last_line implies a line");
                if !cur.is_empty() {
                    cur.push(' ');
                }
                cur.push_str(&rendered);
            }
            Some(last) => {
                // Preserve blank lines inside the skipped region.
                for _ in last + 1..t.line {
                    self.lines.push(String::new());
                }
                self.lines.push(rendered);
                self.last_line = Some(t.line);
            }
            None => {
                self.lines.push(rendered);
                self.last_line = Some(t.line);
            }
        }
    }
}

const MPI_TYPES: &[&str] = &[
    "MPI_Status",
    "MPI_Request",
    "MPI_Comm",
    "MPI_Datatype",
    "MPI_Op",
    "MPI_Group",
    "size_t",
    "FILE",
    "time_t",
];

impl Parser {
    fn new(lexed: LexOutput) -> Self {
        Parser {
            tokens: lexed.tokens,
            pos: 0,
            diagnostics: lexed.diagnostics,
            known_types: MPI_TYPES.iter().map(|s| s.to_string()).collect(),
            anchored: false,
            recoveries: 0,
            depth: 0,
        }
    }

    /// Open one more level; past [`MAX_NESTING`] report an error and
    /// return `false` instead, so the caller fails and its recovery skips
    /// the region.
    fn open_level(&mut self) -> bool {
        if self.depth == MAX_NESTING {
            let line = self.peek().line;
            self.error(line, format!("nesting deeper than {MAX_NESTING} levels"));
            return false;
        }
        self.depth += 1;
        true
    }

    /// Run `parse` one level deeper (see [`open_level`](Self::open_level)).
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Option<T>) -> Option<T> {
        if !self.open_level() {
            return None;
        }
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, off: usize) -> &Token {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> bool {
        if self.eat_punct(p) {
            true
        } else {
            let line = self.peek().line;
            let found = self.peek().kind.render();
            self.error(
                line,
                format!("expected `{}`, found `{}`", p.as_str(), found),
            );
            false
        }
    }

    fn error(&mut self, line: u32, msg: impl Into<String>) {
        self.diagnostics
            .push(Diagnostic::new(Severity::Error, line, msg));
    }

    // ---- program level ----------------------------------------------------

    fn parse_program(mut self) -> ParseOutput {
        let mut directives = Vec::new();
        let mut items = Vec::new();
        while !self.at_eof() {
            // An anchor unwind terminates at top level: the anchor token is
            // still in the stream and reparses as an ordinary item.
            self.anchored = false;
            if let TokenKind::Directive(d) = &self.peek().kind {
                directives.push(d.clone());
                self.bump();
                continue;
            }
            let save = self.pos;
            match self.parse_item() {
                Some(item) => items.push(item),
                None => {
                    // Unrecoverable at this token: rewind to the item start
                    // (so the error node keeps everything the failed attempt
                    // consumed) and skip to the item recovery set.
                    self.pos = save;
                    let line = self.peek().line;
                    let lines = self.skip_to_sync();
                    self.recoveries += 1;
                    if !lines.is_empty() {
                        items.push(Item::Error { line, lines });
                    }
                    if self.pos == save {
                        // No progress possible (can only happen at EOF).
                        break;
                    }
                }
            }
        }
        ParseOutput {
            program: Program { directives, items },
            diagnostics: self.diagnostics,
            recoveries: self.recoveries,
        }
    }

    /// Item-level recovery: skip tokens until the item recovery set — the
    /// next plausible item start (type start or directive at depth 0, or a
    /// function anchor at any depth), after a `;` at depth 0, or after a
    /// balancing `}`. Paren and brace depths are tracked separately and
    /// clamped so stray closers cannot mis-sync. Returns the skipped text
    /// grouped per source line.
    fn skip_to_sync(&mut self) -> Vec<String> {
        let mut grouped = LineGroups::new();
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut consumed = false;
        while !self.at_eof() {
            if consumed
                && brace == 0
                && paren == 0
                && (self.at_type_start() || matches!(self.peek().kind, TokenKind::Directive(_)))
            {
                break;
            }
            if consumed && self.at_item_anchor() {
                break;
            }
            let t = self.bump();
            consumed = true;
            let mut stop = false;
            match &t.kind {
                TokenKind::Punct(Punct::LBrace) => brace += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    brace -= 1;
                    if brace <= 0 {
                        brace = 0;
                        stop = true;
                    }
                }
                TokenKind::Punct(Punct::LParen) => paren += 1,
                TokenKind::Punct(Punct::RParen) => paren = (paren - 1).max(0),
                TokenKind::Punct(Punct::Semicolon) if brace == 0 && paren == 0 => stop = true,
                _ => {}
            }
            grouped.push(&t);
            if stop {
                break;
            }
        }
        grouped.lines
    }

    /// Does the upcoming token sequence look like the start of a function
    /// definition or prototype: `type-words [*]* ident (`? This is the
    /// top-level *anchor*: seen at brace depth ≥ 1 it proves a `}` was lost
    /// above, so open blocks unwind instead of swallowing the next item.
    /// Never true at a valid statement start (a declaration statement's name
    /// is followed by `;`/`=`/`,`/`[`, not `(`).
    fn at_item_anchor(&self) -> bool {
        let mut off = 0usize;
        match &self.peek_at(off).kind {
            TokenKind::Keyword(k) if k.starts_type() => {
                let tagged = matches!(k, Keyword::Struct | Keyword::Union | Keyword::Enum);
                off += 1;
                if tagged && matches!(self.peek_at(off).kind, TokenKind::Ident(_)) {
                    off += 1;
                }
                while let TokenKind::Keyword(k2) = &self.peek_at(off).kind {
                    if k2.starts_type() {
                        off += 1;
                    } else {
                        break;
                    }
                }
            }
            TokenKind::Ident(name) if self.known_types.iter().any(|t| t == name) => off += 1,
            _ => return false,
        }
        while self.peek_at(off).is_punct(Punct::Star) {
            off += 1;
        }
        if !matches!(self.peek_at(off).kind, TokenKind::Ident(_)) {
            return false;
        }
        off += 1;
        self.peek_at(off).is_punct(Punct::LParen)
    }

    fn at_type_start(&self) -> bool {
        match &self.peek().kind {
            TokenKind::Keyword(k) => k.starts_type(),
            TokenKind::Ident(name) => {
                self.known_types.iter().any(|t| t == name)
                    // Heuristic: `Ident Ident` at declaration position is a
                    // typedef'd declaration (e.g. `uint32_t n;`).
                    || matches!(&self.peek_at(1).kind, TokenKind::Ident(_))
                        && !matches!(&self.peek_at(2).kind, TokenKind::Punct(Punct::LParen))
                        && matches!(
                            &self.peek_at(2).kind,
                            TokenKind::Punct(Punct::Semicolon)
                                | TokenKind::Punct(Punct::Assign)
                                | TokenKind::Punct(Punct::Comma)
                                | TokenKind::Punct(Punct::LBracket)
                        )
            }
            _ => false,
        }
    }

    fn parse_item(&mut self) -> Option<Item> {
        if !self.at_type_start() {
            let line = self.peek().line;
            let found = self.peek().kind.render();
            self.error(
                line,
                format!("expected declaration or function, found `{found}`"),
            );
            return None;
        }
        let type_spec = self.parse_type_spec()?;
        // Lookahead: pointer stars then name then `(` → function definition.
        let save = self.pos;
        let mut pointer_depth = 0u8;
        while self.eat_punct(Punct::Star) {
            pointer_depth = pointer_depth.saturating_add(1);
        }
        let name = match &self.peek().kind {
            TokenKind::Ident(n) => {
                let n = n.clone();
                self.bump();
                n
            }
            _ => {
                let line = self.peek().line;
                let found = self.peek().kind.render();
                self.error(line, format!("expected identifier, found `{found}`"));
                return None;
            }
        };
        if self.peek().is_punct(Punct::LParen) && !name.is_empty() {
            let line = self.peek().line;
            self.bump(); // (
            let params = self.parse_params()?;
            if self.peek().is_punct(Punct::LBrace) {
                let body = self.parse_block()?;
                return Some(Item::Function(FunctionDef {
                    return_type: type_spec,
                    name,
                    params,
                    body,
                    line,
                }));
            }
            // Function *declaration* (prototype): consume the `;`, model as a
            // no-declarator Declaration so the printer can re-emit it.
            self.expect_punct(Punct::Semicolon);
            return Some(Item::Declaration(Declaration {
                type_spec: TypeSpec {
                    words: {
                        let mut w = type_spec.words;
                        w.push(format!(
                            "/*proto*/ {}({})",
                            name,
                            params
                                .iter()
                                .map(render_param)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                        w
                    },
                },
                declarators: vec![],
                line,
            }));
        }
        // Otherwise: global declaration. Rewind to re-parse declarators
        // uniformly (pointer depth + name already consumed above).
        self.pos = save;
        let decl = self.parse_declaration_body(type_spec)?;
        Some(Item::Declaration(decl))
    }

    fn parse_type_spec(&mut self) -> Option<TypeSpec> {
        let mut words = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::Keyword(k) if k.starts_type() => {
                    // `struct`/`union`/`enum` are followed by a tag name.
                    words.push(k.as_str().to_string());
                    let is_tagged = matches!(k, Keyword::Struct | Keyword::Union | Keyword::Enum);
                    self.bump();
                    if is_tagged {
                        if let TokenKind::Ident(tag) = &self.peek().kind {
                            words.push(tag.clone());
                            self.bump();
                        }
                    }
                }
                TokenKind::Ident(name)
                    if words.is_empty()
                        && (self.known_types.iter().any(|t| t == name)
                            || matches!(&self.peek_at(1).kind, TokenKind::Ident(_))) =>
                {
                    words.push(name.clone());
                    self.bump();
                    break;
                }
                _ => break,
            }
        }
        if words.is_empty() {
            let line = self.peek().line;
            self.error(line, "expected type specifier");
            None
        } else {
            Some(TypeSpec { words })
        }
    }

    fn parse_params(&mut self) -> Option<Vec<Param>> {
        let mut params = Vec::new();
        if self.eat_punct(Punct::RParen) {
            return Some(params);
        }
        // `(void)` parameter list.
        if self.peek().is_keyword(Keyword::Void) && self.peek_at(1).is_punct(Punct::RParen) {
            self.bump();
            self.bump();
            return Some(params);
        }
        loop {
            let type_spec = self.parse_type_spec()?;
            let mut pointer_depth = 0u8;
            while self.eat_punct(Punct::Star) {
                pointer_depth = pointer_depth.saturating_add(1);
            }
            let name = match &self.peek().kind {
                TokenKind::Ident(n) => {
                    let n = n.clone();
                    self.bump();
                    n
                }
                _ => String::new(), // unnamed parameter in prototypes
            };
            let mut array = false;
            if self.eat_punct(Punct::LBracket) {
                // Skip an optional fixed size inside the brackets.
                if !self.peek().is_punct(Punct::RBracket) {
                    self.parse_expr()?;
                }
                self.expect_punct(Punct::RBracket);
                array = true;
            }
            params.push(Param {
                type_spec,
                pointer_depth,
                name,
                array,
            });
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.expect_punct(Punct::RParen);
            break;
        }
        Some(params)
    }

    fn parse_block(&mut self) -> Option<Block> {
        self.expect_punct(Punct::LBrace);
        let mut stmts = Vec::new();
        loop {
            if self.anchored || self.at_eof() || self.peek().is_punct(Punct::RBrace) {
                break;
            }
            if self.at_item_anchor() {
                // A function start at brace depth ≥ 1 means a `}` was lost
                // above: close this (and every enclosing) block here so the
                // error cannot absorb the next top-level item.
                let line = self.peek().line;
                self.error(
                    line,
                    "expected `}` before start of next function; closing open blocks",
                );
                self.recoveries += 1;
                self.anchored = true;
                break;
            }
            let save = self.pos;
            match self.parse_stmt() {
                Some(s) => stmts.push(s),
                None => {
                    // Rewind to the statement start so the error node keeps
                    // everything the failed attempt consumed, then skip to
                    // the statement recovery set.
                    self.pos = save;
                    let line = self.peek().line;
                    let lines = self.skip_stmt_error();
                    self.recoveries += 1;
                    if !lines.is_empty() {
                        stmts.push(Stmt::Error { line, lines });
                    }
                    if self.pos == save {
                        break; // no progress possible
                    }
                }
            }
        }
        if !self.anchored {
            self.expect_punct(Punct::RBrace);
        }
        Some(Block { stmts })
    }

    /// Statement-level recovery: consume up to and including the next `;` at
    /// the statement's own depth, stopping *before* the enclosing block's
    /// `}`, before any token in the statement recovery set (statement
    /// keywords, type starts, identifiers, `{`, directives) once at depth 0,
    /// or before a top-level anchor at any depth. Paren and brace depths are
    /// tracked separately — a stray `)` clamps instead of mis-syncing the
    /// brace depth. Returns the skipped text grouped per source line.
    fn skip_stmt_error(&mut self) -> Vec<String> {
        let mut grouped = LineGroups::new();
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut consumed = false;
        while !self.at_eof() {
            if brace == 0 && self.peek().is_punct(Punct::RBrace) {
                break;
            }
            if consumed
                && ((brace == 0 && paren == 0 && self.at_stmt_recovery_point())
                    || self.at_item_anchor())
            {
                break;
            }
            let t = self.bump();
            consumed = true;
            let mut stop = false;
            match &t.kind {
                TokenKind::Punct(Punct::LBrace) => brace += 1,
                TokenKind::Punct(Punct::RBrace) => brace -= 1, // brace > 0 here
                TokenKind::Punct(Punct::LParen) => paren += 1,
                TokenKind::Punct(Punct::RParen) => paren = (paren - 1).max(0),
                TokenKind::Punct(Punct::Semicolon) if brace == 0 && paren == 0 => stop = true,
                _ => {}
            }
            grouped.push(&t);
            if stop {
                break;
            }
        }
        grouped.lines
    }

    /// Statement recovery set: tokens that plausibly start the next
    /// statement. (`else` is deliberately absent — it can never start a
    /// statement, so it belongs to the error region it trails.)
    fn at_stmt_recovery_point(&self) -> bool {
        match &self.peek().kind {
            TokenKind::Keyword(k) => {
                k.starts_type()
                    || matches!(
                        k,
                        Keyword::If
                            | Keyword::While
                            | Keyword::Do
                            | Keyword::For
                            | Keyword::Return
                            | Keyword::Break
                            | Keyword::Continue
                    )
            }
            TokenKind::Ident(_) | TokenKind::Directive(_) => true,
            TokenKind::Punct(Punct::LBrace) => true,
            _ => false,
        }
    }

    /// Parse one statement for a branch body (`if`/`while`/`for`/`do`); on
    /// failure, confine the damage to an `Error` statement instead of
    /// propagating, so a successfully parsed header keeps its parsed
    /// children.
    fn parse_stmt_or_error(&mut self) -> Stmt {
        let save = self.pos;
        let line = self.peek().line;
        match self.parse_stmt() {
            Some(s) => s,
            None => {
                self.pos = save;
                let lines = self.skip_stmt_error();
                self.recoveries += 1;
                Stmt::Error { line, lines }
            }
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        self.nested(Parser::stmt)
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let line = self.peek().line;
        match &self.peek().kind {
            TokenKind::Punct(Punct::LBrace) => Some(Stmt::Block(self.parse_block()?)),
            TokenKind::Punct(Punct::Semicolon) => {
                self.bump();
                Some(Stmt::Expr { expr: None, line })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                let then_branch = Box::new(self.parse_stmt_or_error());
                let else_branch = if self.peek().is_keyword(Keyword::Else) {
                    self.bump();
                    Some(Box::new(self.parse_stmt_or_error()))
                } else {
                    None
                };
                Some(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                let body = Box::new(self.parse_stmt_or_error());
                Some(Stmt::While { cond, body, line })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.parse_stmt_or_error());
                if !self.peek().is_keyword(Keyword::While) {
                    self.error(self.peek().line, "expected `while` after do-body");
                    return None;
                }
                self.bump();
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                self.expect_punct(Punct::Semicolon);
                Some(Stmt::DoWhile { body, cond, line })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen);
                let init = if self.peek().is_punct(Punct::Semicolon) {
                    self.bump();
                    ForInit::None
                } else if self.at_type_start() {
                    let ts = self.parse_type_spec()?;
                    let d = self.parse_declaration_body(ts)?;
                    ForInit::Decl(d)
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semicolon);
                    ForInit::Expr(e)
                };
                let cond = if self.peek().is_punct(Punct::Semicolon) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semicolon);
                let step = if self.peek().is_punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen);
                let body = Box::new(self.parse_stmt_or_error());
                Some(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let expr = if self.peek().is_punct(Punct::Semicolon) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semicolon);
                Some(Stmt::Return { expr, line })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semicolon);
                Some(Stmt::Break { line })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semicolon);
                Some(Stmt::Continue { line })
            }
            _ if self.at_type_start() => {
                let ts = self.parse_type_spec()?;
                let d = self.parse_declaration_body(ts)?;
                Some(Stmt::Decl(d))
            }
            _ => {
                let expr = self.parse_expr()?;
                self.expect_punct(Punct::Semicolon);
                Some(Stmt::Expr {
                    expr: Some(expr),
                    line,
                })
            }
        }
    }

    /// Parse `declarator (, declarator)* ;` after the type specifier.
    fn parse_declaration_body(&mut self, type_spec: TypeSpec) -> Option<Declaration> {
        let line = self.peek().line;
        let mut declarators = Vec::new();
        loop {
            let mut pointer_depth = 0u8;
            while self.eat_punct(Punct::Star) {
                pointer_depth = pointer_depth.saturating_add(1);
            }
            let name = match &self.peek().kind {
                TokenKind::Ident(n) => {
                    let n = n.clone();
                    self.bump();
                    n
                }
                _ => {
                    let l = self.peek().line;
                    let found = self.peek().kind.render();
                    self.error(l, format!("expected declarator name, found `{found}`"));
                    return None;
                }
            };
            let mut arrays = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                if self.peek().is_punct(Punct::RBracket) {
                    arrays.push(None);
                } else {
                    arrays.push(Some(self.parse_assign_expr()?));
                }
                self.expect_punct(Punct::RBracket);
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            declarators.push(Declarator {
                name,
                pointer_depth,
                arrays,
                init,
            });
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.expect_punct(Punct::Semicolon);
            break;
        }
        Some(Declaration {
            type_spec,
            declarators,
            line,
        })
    }

    fn parse_initializer(&mut self) -> Option<Init> {
        self.nested(Parser::initializer)
    }

    fn initializer(&mut self) -> Option<Init> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            if !self.peek().is_punct(Punct::RBrace) {
                loop {
                    items.push(self.parse_initializer()?);
                    if self.eat_punct(Punct::Comma) {
                        if self.peek().is_punct(Punct::RBrace) {
                            break; // trailing comma
                        }
                        continue;
                    }
                    break;
                }
            }
            self.expect_punct(Punct::RBrace);
            Some(Init::List(items))
        } else {
            Some(Init::Expr(self.parse_assign_expr()?))
        }
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn parse_expr(&mut self) -> Option<Expr> {
        let mut e = self.parse_assign_expr()?;
        while self.peek().is_punct(Punct::Comma) {
            self.bump();
            let rhs = self.parse_assign_expr()?;
            e = Expr::Comma {
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
        }
        Some(e)
    }

    fn parse_assign_expr(&mut self) -> Option<Expr> {
        self.nested(Parser::assign_expr)
    }

    fn assign_expr(&mut self) -> Option<Expr> {
        let lhs = self.parse_ternary()?;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusAssign) => Some(Some(AssignOp::Add)),
            TokenKind::Punct(Punct::MinusAssign) => Some(Some(AssignOp::Sub)),
            TokenKind::Punct(Punct::StarAssign) => Some(Some(AssignOp::Mul)),
            TokenKind::Punct(Punct::SlashAssign) => Some(Some(AssignOp::Div)),
            TokenKind::Punct(Punct::PercentAssign) => Some(Some(AssignOp::Rem)),
            TokenKind::Punct(Punct::AmpAssign) => Some(Some(AssignOp::BitAnd)),
            TokenKind::Punct(Punct::PipeAssign) => Some(Some(AssignOp::BitOr)),
            TokenKind::Punct(Punct::CaretAssign) => Some(Some(AssignOp::BitXor)),
            TokenKind::Punct(Punct::ShlAssign) => Some(Some(AssignOp::Shl)),
            TokenKind::Punct(Punct::ShrAssign) => Some(Some(AssignOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_assign_expr()?; // right-associative
            Some(Expr::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        } else {
            Some(lhs)
        }
    }

    fn parse_ternary(&mut self) -> Option<Expr> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then_expr = self.parse_expr()?;
            self.expect_punct(Punct::Colon);
            let else_expr = self.parse_assign_expr()?;
            Some(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            })
        } else {
            Some(cond)
        }
    }

    fn binop_at(&self) -> Option<BinOp> {
        let p = match &self.peek().kind {
            TokenKind::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::OrOr => BinOp::Or,
            Punct::AndAnd => BinOp::And,
            Punct::Pipe => BinOp::BitOr,
            Punct::Caret => BinOp::BitXor,
            Punct::Amp => BinOp::BitAnd,
            Punct::Eq => BinOp::Eq,
            Punct::Ne => BinOp::Ne,
            Punct::Lt => BinOp::Lt,
            Punct::Gt => BinOp::Gt,
            Punct::Le => BinOp::Le,
            Punct::Ge => BinOp::Ge,
            Punct::Shl => BinOp::Shl,
            Punct::Shr => BinOp::Shr,
            Punct::Plus => BinOp::Add,
            Punct::Minus => BinOp::Sub,
            Punct::Star => BinOp::Mul,
            Punct::Slash => BinOp::Div,
            Punct::Percent => BinOp::Rem,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Option<Expr> {
        let entry = self.depth;
        let chain = self.binary_chain(min_prec);
        self.depth = entry;
        chain
    }

    /// Fold a left-associative operator chain. Each folded operator nests
    /// the chain so far one level deeper, so it opens a level that
    /// [`parse_binary`](Self::parse_binary) closes when the chain ends.
    fn binary_chain(&mut self, min_prec: u8) -> Option<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self.binop_at() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            if !self.open_level() {
                return None;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Some(lhs)
    }

    fn parse_unary(&mut self) -> Option<Expr> {
        self.nested(Parser::unary)
    }

    fn unary(&mut self) -> Option<Expr> {
        let line = self.peek().line;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Punct(Punct::Inc) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::Dec) => Some(UnOp::PreDec),
            TokenKind::Punct(Punct::Plus) => {
                // Unary plus is a no-op; consume and recurse.
                self.bump();
                return self.parse_unary();
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.peek().is_punct(Punct::LParen) && self.type_in_parens() {
                    self.bump(); // (
                    let ty = self.parse_type_spec()?;
                    let mut pointer_depth = 0u8;
                    while self.eat_punct(Punct::Star) {
                        pointer_depth = pointer_depth.saturating_add(1);
                    }
                    self.expect_punct(Punct::RParen);
                    return Some(Expr::SizeofType { ty, pointer_depth });
                }
                // `sizeof expr` → approximate with sizeof(int) to stay total.
                let _ = self.parse_unary()?;
                return Some(Expr::SizeofType {
                    ty: TypeSpec::named("int"),
                    pointer_depth: 0,
                });
            }
            TokenKind::Punct(Punct::LParen) if self.type_in_parens() => {
                self.bump(); // (
                let ty = self.parse_type_spec()?;
                let mut pointer_depth = 0u8;
                while self.eat_punct(Punct::Star) {
                    pointer_depth = pointer_depth.saturating_add(1);
                }
                self.expect_punct(Punct::RParen);
                let operand = self.parse_unary()?;
                return Some(Expr::Cast {
                    ty,
                    pointer_depth,
                    operand: Box::new(operand),
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.parse_unary()?;
            return Some(Expr::Unary {
                op,
                operand: Box::new(operand),
            });
        }
        self.parse_postfix(line)
    }

    /// Lookahead: does `(` open a type (cast / sizeof-type)?
    fn type_in_parens(&self) -> bool {
        if !self.peek().is_punct(Punct::LParen) {
            return false;
        }
        match &self.peek_at(1).kind {
            TokenKind::Keyword(k) if k.starts_type() => true,
            TokenKind::Ident(name) => {
                self.known_types.iter().any(|t| t == name)
                    && matches!(
                        &self.peek_at(2).kind,
                        TokenKind::Punct(Punct::RParen) | TokenKind::Punct(Punct::Star)
                    )
            }
            _ => false,
        }
    }

    fn parse_postfix(&mut self, line: u32) -> Option<Expr> {
        let mut e = self.parse_primary(line)?;
        loop {
            match &self.peek().kind {
                TokenKind::Punct(Punct::LParen) => {
                    // Only identifier callees in the subset.
                    let callee = match &e {
                        Expr::Ident(n) => n.clone(),
                        _ => {
                            let l = self.peek().line;
                            self.error(l, "indirect calls are outside the subset");
                            return None;
                        }
                    };
                    let call_line = self.peek().line;
                    self.bump();
                    let mut args = Vec::new();
                    if !self.peek().is_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign_expr()?);
                            if self.eat_punct(Punct::Comma) {
                                continue;
                            }
                            break;
                        }
                    }
                    self.expect_punct(Punct::RParen);
                    e = Expr::Call {
                        callee,
                        args,
                        line: call_line,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket);
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(idx),
                    };
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::Member {
                        base: Box::new(e),
                        field,
                        arrow: false,
                    };
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::Member {
                        base: Box::new(e),
                        field,
                        arrow: true,
                    };
                }
                TokenKind::Punct(Punct::Inc) => {
                    self.bump();
                    e = Expr::Unary {
                        op: UnOp::PostInc,
                        operand: Box::new(e),
                    };
                }
                TokenKind::Punct(Punct::Dec) => {
                    self.bump();
                    e = Expr::Unary {
                        op: UnOp::PostDec,
                        operand: Box::new(e),
                    };
                }
                _ => break,
            }
        }
        Some(e)
    }

    fn expect_ident(&mut self) -> Option<String> {
        match &self.peek().kind {
            TokenKind::Ident(n) => {
                let n = n.clone();
                self.bump();
                Some(n)
            }
            _ => {
                let line = self.peek().line;
                let found = self.peek().kind.render();
                self.error(line, format!("expected identifier, found `{found}`"));
                None
            }
        }
    }

    fn parse_primary(&mut self, _line: u32) -> Option<Expr> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::IntLit(v) => {
                self.bump();
                Some(Expr::IntLit(v))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Some(Expr::FloatLit(v))
            }
            TokenKind::StrLit(s) => {
                self.bump();
                // Adjacent string literals concatenate.
                let mut full = s;
                while let TokenKind::StrLit(next) = &self.peek().kind {
                    full.push_str(next);
                    self.bump();
                }
                Some(Expr::StrLit(full))
            }
            TokenKind::CharLit(c) => {
                self.bump();
                Some(Expr::CharLit(c))
            }
            TokenKind::Ident(n) => {
                self.bump();
                Some(Expr::Ident(n))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen);
                Some(e)
            }
            _ => {
                self.error(
                    t.line,
                    format!("expected expression, found `{}`", t.kind.render()),
                );
                None
            }
        }
    }
}

fn render_param(p: &Param) -> String {
    let mut s = p.type_spec.render();
    s.push(' ');
    for _ in 0..p.pointer_depth {
        s.push('*');
    }
    s.push_str(&p.name);
    if p.array {
        s.push_str("[]");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_program;

    const PI_SRC: &str = r#"#include <mpi.h>
#include <stdio.h>
int main(int argc, char **argv) {
    int rank, size, i;
    double sum = 0.0, pi, x, step;
    int n = 100000;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    step = 1.0 / (double)n;
    for (i = rank; i < n; i += size) {
        x = (i + 0.5) * step;
        sum += 4.0 / (1.0 + x * x);
    }
    double local = sum * step;
    MPI_Reduce(&local, &pi, 1, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
        printf("pi = %f\n", pi);
    }
    MPI_Finalize();
    return 0;
}
"#;

    #[test]
    fn parses_pi_program_cleanly() {
        let prog = parse_strict(PI_SRC).expect("pi program must parse");
        assert_eq!(prog.directives.len(), 2);
        let main = prog.main().expect("has main");
        assert_eq!(main.params.len(), 2);
        assert_eq!(main.params[1].pointer_depth, 2);
        let mpi = prog.calls_matching(|n| n.starts_with("MPI_"));
        let names: Vec<&str> = mpi.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "MPI_Init",
                "MPI_Comm_rank",
                "MPI_Comm_size",
                "MPI_Reduce",
                "MPI_Finalize"
            ]
        );
    }

    #[test]
    fn call_lines_match_source() {
        let prog = parse_strict(PI_SRC).unwrap();
        let mpi = prog.calls_matching(|n| n.starts_with("MPI_"));
        assert_eq!(mpi[0], ("MPI_Init".to_string(), 7));
        assert_eq!(mpi[4].0, "MPI_Finalize");
        assert_eq!(mpi[4].1, 20);
    }

    #[test]
    fn declaration_multi_declarator() {
        let prog = parse_strict("int main() { int a = 1, b[10], *p; return a; }").unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.declarators.len(), 3);
                assert_eq!(d.declarators[0].name, "a");
                assert!(d.declarators[0].init.is_some());
                assert_eq!(d.declarators[1].arrays.len(), 1);
                assert_eq!(d.declarators[2].pointer_depth, 1);
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn for_loop_variants() {
        let src = "int main() { for (;;) break; for (int i = 0; i < 3; i++) continue; int j; for (j = 0; j < 2; ) j++; return 0; }";
        let prog = parse_strict(src).unwrap();
        let main = prog.main().unwrap();
        assert!(matches!(
            &main.body.stmts[0],
            Stmt::For {
                init: ForInit::None,
                cond: None,
                step: None,
                ..
            }
        ));
        assert!(matches!(
            &main.body.stmts[1],
            Stmt::For {
                init: ForInit::Decl(_),
                ..
            }
        ));
        assert!(matches!(
            &main.body.stmts[3],
            Stmt::For {
                init: ForInit::Expr(_),
                step: None,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence_shape() {
        let prog = parse_strict("int main() { int x = 1 + 2 * 3; return x; }").unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => match d.declarators[0].init.as_ref().unwrap() {
                Init::Expr(Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                }) => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected init {other:?}"),
            },
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn assignment_right_associative() {
        let prog = parse_strict("int main() { int a, b, c; a = b = c = 1; return a; }").unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[1] {
            Stmt::Expr {
                expr: Some(Expr::Assign { rhs, .. }),
                ..
            } => {
                assert!(matches!(**rhs, Expr::Assign { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dangling_else_binds_inner() {
        let prog = parse_strict("int main() { if (1) if (2) return 1; else return 2; return 0; }")
            .unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::If {
                else_branch,
                then_branch,
                ..
            } => {
                assert!(else_branch.is_none(), "else binds to the inner if");
                assert!(
                    matches!(**then_branch, Stmt::If { ref else_branch, .. } if else_branch.is_some())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        let prog = parse_strict(
            "int main() { double d = (double)3; int n = sizeof(double); int *p = (int *)0; return n; }",
        )
        .unwrap();
        let main = prog.main().unwrap();
        assert_eq!(main.body.stmts.len(), 4);
        match &main.body.stmts[1] {
            Stmt::Decl(d) => match d.declarators[0].init.as_ref().unwrap() {
                Init::Expr(Expr::SizeofType { ty, .. }) => assert_eq!(ty.render(), "double"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mpi_status_declaration() {
        let prog = parse_strict("int main() { MPI_Status status; return 0; }").unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => assert_eq!(d.type_spec.render(), "MPI_Status"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn member_access_on_status() {
        let prog =
            parse_strict("int main() { MPI_Status st; int src = st.MPI_SOURCE; return src; }")
                .unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[1] {
            Stmt::Decl(d) => match d.declarators[0].init.as_ref().unwrap() {
                Init::Expr(Expr::Member { field, arrow, .. }) => {
                    assert_eq!(field, "MPI_SOURCE");
                    assert!(!arrow);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tolerant_parse_recovers_from_bad_stmt() {
        let src = "int main() { int a = 1; = = garbage = ; int b = 2; return a + b; }";
        let out = parse_tolerant(src);
        assert!(!out.is_clean());
        let main = out.program.main().unwrap();
        // a-decl, error node, b-decl, return
        assert!(main
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::Error { .. })));
        let decls = main
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Decl(_)))
            .count();
        assert_eq!(decls, 2, "statements after the error are still parsed");
    }

    #[test]
    fn strict_parse_rejects_garbage() {
        assert!(parse_strict("int main() { @!#; }").is_err());
        assert!(parse_strict("}{").is_err());
    }

    #[test]
    fn tolerant_never_panics_on_truncated_input() {
        for src in [
            "int main() {",
            "int main() { if (x",
            "int main() { for (int i = 0;",
            "int",
            "(",
            "int main() { MPI_Send(",
        ] {
            let _ = parse_tolerant(src);
        }
    }

    #[test]
    fn empty_statement_and_blocks() {
        let prog = parse_strict("int main() { ; { int x = 1; } return 0; }").unwrap();
        let main = prog.main().unwrap();
        assert!(matches!(main.body.stmts[0], Stmt::Expr { expr: None, .. }));
        assert!(matches!(main.body.stmts[1], Stmt::Block(_)));
    }

    #[test]
    fn do_while_and_ternary() {
        let prog = parse_strict(
            "int main() { int i = 0; do { i++; } while (i < 10); int m = i > 5 ? 1 : 0; return m; }",
        )
        .unwrap();
        let main = prog.main().unwrap();
        assert!(matches!(main.body.stmts[1], Stmt::DoWhile { .. }));
    }

    #[test]
    fn function_prototype_tolerated() {
        let prog = parse_strict("double f(double x);\nint main() { return 0; }").unwrap();
        assert_eq!(prog.items.len(), 2);
    }

    #[test]
    fn global_declarations() {
        let prog =
            parse_strict("int N = 100;\ndouble data[64];\nint main() { return N; }").unwrap();
        let globals = prog
            .items
            .iter()
            .filter(|i| matches!(i, Item::Declaration(d) if !d.declarators.is_empty()))
            .count();
        assert_eq!(globals, 2);
    }

    #[test]
    fn comma_in_for_step() {
        let prog = parse_strict(
            "int main() { int i, j; for (i = 0, j = 9; i < j; i++, j--) ; return 0; }",
        )
        .unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[1] {
            Stmt::For {
                init: ForInit::Expr(e),
                step: Some(s),
                ..
            } => {
                assert!(matches!(e, Expr::Comma { .. }));
                assert!(matches!(s, Expr::Comma { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adjacent_string_literals_concatenate() {
        let prog = parse_strict(r#"int main() { printf("a" "b"); return 0; }"#).unwrap();
        let main = prog.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Expr {
                expr: Some(Expr::Call { args, .. }),
                ..
            } => {
                assert_eq!(args[0], Expr::StrLit("ab".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn helper_function_definitions() {
        let src = "double square(double x) { return x * x; }\nint main() { double y = square(2.0); return 0; }";
        let prog = parse_strict(src).unwrap();
        assert_eq!(prog.functions().count(), 2);
    }

    // ---- resilience: anchoring, recovery sets, health ----------------------

    /// Regression (tentpole): an unclosed brace in one function must not
    /// absorb the functions after it. The anchor `int main(` at brace depth
    /// ≥ 1 closes the open blocks and resumes at top level.
    #[test]
    fn unclosed_brace_does_not_absorb_next_function() {
        let src = "double helper(double x) {\n    if (x > 0.0) {\n        x += 1.0;\n    return x;\n}\n\nint main(int argc, char **argv) {\n    MPI_Init(&argc, &argv);\n    double y = helper(2.0);\n    MPI_Finalize();\n    return 0;\n}\n";
        let out = parse_tolerant(src);
        assert!(!out.is_clean());
        let names: Vec<&str> = out.program.functions().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "main"], "both functions survive");
        let main = out.program.main().unwrap();
        assert_eq!(
            main.body.stmts.len(),
            4,
            "main's body is fully parsed: {:?}",
            main.body.stmts
        );
        let mpi = out.program.calls_matching(|n| n.starts_with("MPI_"));
        let names: Vec<&str> = mpi.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["MPI_Init", "MPI_Finalize"]);
        assert!(out.recoveries >= 1, "anchor unwind counts as recovery");
    }

    /// The anchor also fires through several levels of unclosed nesting.
    #[test]
    fn anchor_unwinds_nested_unclosed_blocks() {
        let src = "int f() {\n    while (1) {\n        if (2) {\n            int x = 3;\nint g() { return 7; }\n";
        let out = parse_tolerant(src);
        let names: Vec<&str> = out.program.functions().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "g"]);
        // f's parsed children survive inside the unwound nest.
        let f = out.program.functions().next().unwrap();
        assert!(matches!(f.body.stmts[0], Stmt::While { .. }));
    }

    /// Regression (satellite): a stray closing paren must not mis-sync
    /// recovery past the statement boundary — `y = 1;` after `if (x))` is a
    /// real statement, not part of the error region.
    #[test]
    fn stray_closer_confined_to_statement() {
        let src = "int main() { int x = 0; int y = 0; if (x)) y = 1; return y; }";
        let out = parse_tolerant(src);
        assert!(!out.is_clean());
        let main = out.program.main().unwrap();
        let assigns = main
            .body
            .stmts
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Expr {
                        expr: Some(Expr::Assign { .. }),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(assigns, 1, "y = 1; parses as a real statement");
        assert!(
            matches!(main.body.stmts.last(), Some(Stmt::Return { .. })),
            "return survives"
        );
        // The error region is the lone `)`, kept inside the if's branch.
        let errors: Vec<&Stmt> = main.body.stmts.iter().collect();
        assert!(errors.iter().any(|s| matches!(s, Stmt::If { .. })));
    }

    /// A parsed branch header keeps its successfully parsed children even
    /// when the branch body is broken.
    #[test]
    fn branch_header_keeps_parsed_children() {
        let src = "int main() { if (1) { int a = 1; @@; int b = 2; } return 0; }";
        let out = parse_tolerant(src);
        let main = out.program.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::If { then_branch, .. } => match &**then_branch {
                Stmt::Block(b) => {
                    let decls = b
                        .stmts
                        .iter()
                        .filter(|s| matches!(s, Stmt::Decl(_)))
                        .count();
                    assert_eq!(
                        decls, 2,
                        "both decls survive around the hole: {:?}",
                        b.stmts
                    );
                }
                other => panic!("expected block, got {other:?}"),
            },
            other => panic!("expected if, got {other:?}"),
        }
    }

    /// Error nodes group skipped text by original source line.
    #[test]
    fn error_nodes_preserve_line_structure() {
        let src = "int main() {\n    int a = 1;\n    = =\n    = = =\n    int b = 2;\n    return a + b;\n}\n";
        let out = parse_tolerant(src);
        let main = out.program.main().unwrap();
        let error_lines: Vec<&Vec<String>> = main
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Error { lines, .. } => Some(lines),
                _ => None,
            })
            .collect();
        assert!(!error_lines.is_empty());
        let total: usize = error_lines.iter().map(|l| l.len()).sum();
        assert!(total >= 2, "two source lines of garbage: {error_lines:?}");
        let decls = main
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Decl(_)))
            .count();
        assert_eq!(decls, 2);
    }

    #[test]
    fn health_reports_dirty_ranges() {
        let clean = parse_tolerant("int main() { return 0; }");
        assert!(clean.health().is_clean());
        assert_eq!(clean.recoveries, 0);

        let src = "int main() {\n    int a = 1;\n    = = bad;\n    return a;\n}\n";
        let out = parse_tolerant(src);
        let health = out.health();
        assert!(!health.is_clean());
        assert!(health.error_count >= 1);
        assert!(health.recovery_events >= 1);
        assert!(health.is_dirty_line(3), "dirty: {:?}", health.dirty_lines);
        assert!(!health.is_dirty_line(2));
        assert!(!health.is_dirty_line(4));
    }

    /// Valid programs never trip the anchor: every benchmark-style construct
    /// (declarations with calls, MPI typedefs, nested control flow) parses
    /// identically to before.
    #[test]
    fn anchor_never_fires_on_clean_code() {
        let out = parse_tolerant(PI_SRC);
        assert!(out.is_clean());
        assert_eq!(out.recoveries, 0);
    }

    /// A function whose line 3 is `stmt`, between two clean lines.
    fn around(stmt: &str) -> String {
        format!("int main() {{\n    int x;\n    {stmt}\n    return x;\n}}\n")
    }

    /// A nesting shape: its name, the statement nested `n` levels deep,
    /// and the deepest `n` that still fits [`MAX_NESTING`].
    type Shape = (&'static str, fn(usize) -> String, usize);

    /// The four ways a statement nests.
    fn nesting_shapes() -> [Shape; 4] {
        [
            (
                "blocks",
                |n| "{".repeat(n) + ";" + &"}".repeat(n),
                MAX_NESTING - 1,
            ),
            (
                "parens",
                |n| format!("x = {}1{};", "(".repeat(n), ")".repeat(n)),
                (MAX_NESTING - 4) / 2,
            ),
            (
                "unary",
                |n| format!("x = {}1;", "!".repeat(n)),
                MAX_NESTING - 4,
            ),
            (
                "operators",
                |n| format!("x = 1{};", " + 1".repeat(n)),
                MAX_NESTING - 4,
            ),
        ]
    }

    /// Runs `f` on a thread with Rust's default 2 MiB stack — what the
    /// serving daemon parses submitted buffers on.
    fn on_default_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_is_bounded_exactly() {
        on_default_stack(|| {
            for (name, shape, deepest) in nesting_shapes() {
                let at = around(&shape(deepest));
                let program = parse_strict(&at).unwrap_or_else(|e| panic!("{name}: {e}"));
                let printed = print_program(&program);
                assert!(parse_strict(&printed).is_ok(), "{name}: reprint");
                let err = parse_strict(&around(&shape(deepest + 1))).unwrap_err();
                assert!(
                    err.diagnostics
                        .iter()
                        .any(|d| d.message.contains("nesting deeper")),
                    "{name}: {err}"
                );
            }
        });
    }

    #[test]
    fn over_deep_region_is_an_error_node_not_a_stack_overflow() {
        // Each of these once aborted the process on a 2 MiB thread.
        on_default_stack(|| {
            for (name, shape, _) in nesting_shapes() {
                let src = around(&shape(2_000));
                let out = parse_tolerant(&src);
                let health = out.health();
                assert!(!health.is_clean(), "{name}");
                assert!(health.recovery_events >= 1, "{name}");
                assert!(health.is_dirty_line(3), "{name}: {:?}", health.dirty_lines);
                assert!(
                    !health.is_dirty_line(2) && !health.is_dirty_line(4),
                    "{name}"
                );
                assert!(
                    matches!(out.program.items[..], [Item::Function(_)]),
                    "{name}: the function survives"
                );
                assert!(parse_strict(&src).is_err(), "{name}");
                let reparsed = parse_tolerant(&print_program(&out.program));
                assert!(!reparsed.health().is_clean(), "{name}: reprint stays dirty");
            }
        });
    }
}
