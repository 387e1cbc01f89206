//! The CIR → bytecode compiler.
//!
//! Lowering decisions:
//!
//! * Scalar locals and parameters live in **register slots** (free access),
//!   modelling a compiler's register allocation. Locals whose address is
//!   taken, and local arrays, are **memory-resident** in the per-thread
//!   stack region so pointers to them work and their traffic is timed.
//! * Globals are memory-resident at fixed private addresses; constant
//!   initializers become a load-time data image.
//! * Pointer arithmetic is scaled at compile time using the *storage*
//!   stride of the element type.
//! * Calls to unknown names resolve to [`Intrinsic`]s; anything else is a
//!   compile error (no dynamic linking on the SCC).

use crate::instr::{Instr, Intrinsic};
use crate::value::MemKind;
use hsm_cir::CType;
use hsm_cir::{
    AssignOp, BinaryOp, Declaration, Expr, ExprKind, ForInit, FunctionDef, Stmt, StmtKind, Storage,
    TranslationUnit, UnaryOp,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Base address of the interned string table (private region).
pub(crate) const STRINGS_BASE: u64 = 0x0800_0000;
/// Base address of globals (private region).
pub const GLOBALS_BASE: u64 = 0x1000_0000;
/// Base address of per-thread stack frames (private region).
pub const STACKS_BASE: u64 = 0x2000_0000;
/// Stack region size per thread.
pub const STACK_SIZE: u64 = 0x0010_0000;
/// Base address of the private heap (`malloc`).
pub const HEAP_BASE: u64 = 0x4000_0000;

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    fn new(msg: impl Into<String>) -> Self {
        CompileError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// One memory-resident local of a compiled function: a named slice of the
/// frame's memory area. Register-allocated scalars have no entry — they
/// never touch simulated memory and are invisible to address-level tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameVar {
    /// Source name.
    pub name: String,
    /// Byte offset from the frame's memory base.
    pub offset: u32,
    /// Storage size in bytes.
    pub size: u32,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Source name.
    pub name: String,
    /// Bytecode.
    pub code: Vec<Instr>,
    /// Register slot count (parameters occupy the first slots).
    pub n_regs: u16,
    /// Parameter count.
    pub n_params: u8,
    /// Bytes of memory-resident frame data.
    pub frame_mem: u32,
    /// Declared return type.
    pub ret: CType,
    /// Layout of the memory-resident locals within `frame_mem`, in
    /// allocation order (re-declarations in nested blocks append again).
    pub frame_vars: Vec<FrameVar>,
}

/// A compiled global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: CType,
    /// Absolute private address.
    pub addr: u64,
    /// Storage size in bytes.
    pub storage: usize,
}

/// A fully compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All functions; index = call target.
    pub funcs: Vec<Function>,
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// Interned strings with their addresses.
    pub strings: Vec<(u64, String)>,
    /// Load-time private-memory image: (address, bytes).
    pub image: Vec<(u64, Vec<u8>)>,
    /// Index of the entry function (`main` or `RCCE_APP`).
    pub entry: u32,
}

impl Program {
    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Total bytecode length (diagnostics).
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

/// Storage stride in bytes for one element of `ty` when laid out by this
/// compiler (differs from the C ABI only for pointers, which we store in
/// 8-byte cells).
pub(crate) fn storage_stride(ty: &CType) -> usize {
    MemKind::for_ctype(ty).bytes()
}

/// Total storage for a declared variable.
pub(crate) fn storage_size(ty: &CType) -> usize {
    match ty {
        CType::Array(inner, len) => len.unwrap_or(1) * storage_size(inner),
        other => storage_stride(other),
    }
}

/// Compiles a translation unit.
///
/// # Errors
///
/// Returns a [`CompileError`] for unsupported constructs (unknown call
/// targets, non-constant global initializers, missing entry point).
pub fn compile(tu: &TranslationUnit) -> Result<Program, CompileError> {
    Compiler::new(tu)?.run()
}

#[derive(Debug, Clone)]
enum Slot {
    Reg(u16, CType),
    Mem(u32, CType),
}

struct Compiler<'a> {
    tu: &'a TranslationUnit,
    func_index: HashMap<String, u32>,
    func_sigs: HashMap<String, (CType, Vec<CType>)>,
    globals: HashMap<String, (u64, CType)>,
    global_list: Vec<GlobalVar>,
    strings: Vec<(u64, String)>,
    str_next: u64,
    image: Vec<(u64, Vec<u8>)>,
}

impl<'a> Compiler<'a> {
    fn new(tu: &'a TranslationUnit) -> Result<Self, CompileError> {
        let mut func_index = HashMap::new();
        let mut func_sigs = HashMap::new();
        for (i, f) in tu.functions().enumerate() {
            func_index.insert(f.name.clone(), i as u32);
            func_sigs.insert(
                f.name.clone(),
                (
                    f.ret.clone(),
                    f.params.iter().map(|p| p.ty.clone()).collect(),
                ),
            );
        }
        // Prototypes provide signatures for intrinsic-like externs.
        for d in tu.global_decls() {
            for v in &d.vars {
                if let CType::Function { ret, params } = &v.ty {
                    func_sigs
                        .entry(v.name.clone())
                        .or_insert(((**ret).clone(), params.clone()));
                }
            }
        }

        let mut globals = HashMap::new();
        let mut global_list = Vec::new();
        let mut image = Vec::new();
        let mut next = GLOBALS_BASE;
        for d in tu.global_decls() {
            if d.storage == Storage::Typedef {
                continue;
            }
            for v in &d.vars {
                if matches!(v.ty, CType::Function { .. }) {
                    continue;
                }
                let size = storage_size(&v.ty).max(1);
                let addr = next;
                next += ((size + 7) & !7) as u64;
                globals.insert(v.name.clone(), (addr, v.ty.clone()));
                global_list.push(GlobalVar {
                    name: v.name.clone(),
                    ty: v.ty.clone(),
                    addr,
                    storage: size,
                });
                if let Some(init) = &v.init {
                    let bytes = const_init_bytes(init, &v.ty).ok_or_else(|| {
                        CompileError::new(format!(
                            "global `{}` has a non-constant initializer",
                            v.name
                        ))
                    })?;
                    image.push((addr, bytes));
                }
            }
        }

        Ok(Compiler {
            tu,
            func_index,
            func_sigs,
            globals,
            global_list,
            strings: Vec::new(),
            str_next: STRINGS_BASE,
            image,
        })
    }

    fn intern(&mut self, s: &str) -> u64 {
        for (addr, existing) in &self.strings {
            if existing == s {
                return *addr;
            }
        }
        let addr = self.str_next;
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.str_next += ((bytes.len() + 7) & !7) as u64;
        self.strings.push((addr, s.to_string()));
        self.image.push((addr, bytes));
        addr
    }

    fn run(mut self) -> Result<Program, CompileError> {
        let mut funcs = Vec::new();
        let fn_defs: Vec<&FunctionDef> = self.tu.functions().collect();
        for f in fn_defs {
            let compiled = FnCompiler::compile(&mut self, f)?;
            funcs.push(compiled);
        }
        let entry = self
            .func_index
            .get("main")
            .or_else(|| self.func_index.get("RCCE_APP"))
            .copied()
            .ok_or_else(|| CompileError::new("no `main` or `RCCE_APP` entry point"))?;
        Ok(Program {
            funcs,
            globals: self.global_list,
            strings: self.strings,
            image: self.image,
            entry,
        })
    }
}

/// Renders a constant initializer into bytes for the data image.
fn const_init_bytes(init: &Expr, ty: &CType) -> Option<Vec<u8>> {
    fn scalar_bytes(e: &Expr, ty: &CType) -> Option<Vec<u8>> {
        let kind = MemKind::for_ctype(ty);
        let mut mem = crate::data::ByteMemory::new();
        match (&e.kind, kind.is_float()) {
            (ExprKind::IntLit(v), false) => {
                mem.store(0, kind, crate::value::Value::I(*v));
            }
            (ExprKind::IntLit(v), true) => {
                mem.store(0, kind, crate::value::Value::F(*v as f64));
            }
            (ExprKind::FloatLit(v), true) => {
                mem.store(0, kind, crate::value::Value::F(*v));
            }
            (ExprKind::FloatLit(v), false) => {
                mem.store(0, kind, crate::value::Value::I(*v as i64));
            }
            (ExprKind::CharLit(c), _) => {
                mem.store(0, kind, crate::value::Value::I(*c as i64));
            }
            (ExprKind::Unary(UnaryOp::Neg, inner), _) => {
                let inner_bytes = scalar_bytes(inner, ty)?;
                let v = crate::data::ByteMemory::new();
                let mut m2 = v;
                m2.write_bytes(0, &inner_bytes);
                let loaded = m2.load(0, kind);
                let neg = match loaded {
                    crate::value::Value::I(i) => crate::value::Value::I(-i),
                    crate::value::Value::F(f) => crate::value::Value::F(-f),
                };
                mem.store(0, kind, neg);
            }
            _ => return None,
        }
        Some((0..kind.bytes() as u64).map(|i| mem.read_u8(i)).collect())
    }

    match ty {
        CType::Array(elem, len) => {
            let ExprKind::InitList(items) = &init.kind else {
                return None;
            };
            let stride = storage_stride(elem);
            let count = len.unwrap_or(items.len());
            let mut out = vec![0u8; count * stride];
            for (i, item) in items.iter().enumerate().take(count) {
                let b = scalar_bytes(item, elem)?;
                out[i * stride..i * stride + b.len()].copy_from_slice(&b);
            }
            Some(out)
        }
        scalar => scalar_bytes(init, scalar),
    }
}

struct FnCompiler<'a, 'b> {
    c: &'a mut Compiler<'b>,
    code: Vec<Instr>,
    scopes: Vec<HashMap<String, Slot>>,
    n_regs: u16,
    mem_off: u32,
    addr_taken: HashSet<String>,
    /// Break/continue scopes: loops accept both, switches only break.
    loops: Vec<BreakScope>,
    ret_ty: CType,
    frame_vars: Vec<FrameVar>,
}

/// A break/continue target scope.
struct BreakScope {
    breaks: Vec<usize>,
    /// `None` for switch scopes (continue passes through to the loop).
    continues: Option<Vec<usize>>,
}

impl BreakScope {
    fn loop_scope() -> Self {
        BreakScope {
            breaks: Vec::new(),
            continues: Some(Vec::new()),
        }
    }

    fn switch_scope() -> Self {
        BreakScope {
            breaks: Vec::new(),
            continues: None,
        }
    }
}

impl<'a, 'b> FnCompiler<'a, 'b> {
    fn compile(c: &'a mut Compiler<'b>, f: &FunctionDef) -> Result<Function, CompileError> {
        let mut addr_taken = HashSet::new();
        for s in &f.body {
            hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
                if let ExprKind::Unary(UnaryOp::Addr, inner) = &e.kind {
                    if let Some(base) = inner.base_variable() {
                        addr_taken.insert(base.to_string());
                    }
                }
            });
        }

        let mut fc = FnCompiler {
            c,
            code: Vec::new(),
            scopes: vec![HashMap::new()],
            n_regs: 0,
            mem_off: 0,
            addr_taken,
            loops: Vec::new(),
            ret_ty: f.ret.clone(),
            frame_vars: Vec::new(),
        };

        // Parameters: register slots; address-taken ones get a memory
        // shadow written in the prologue.
        for (i, p) in f.params.iter().enumerate() {
            let reg = fc.n_regs;
            fc.n_regs += 1;
            if fc.addr_taken.contains(&p.name) || p.ty.is_array() {
                let off = fc.alloc_mem(&p.ty);
                fc.record_frame_var(&p.name, off, &p.ty);
                fc.code.push(Instr::LocalMemAddr(off));
                fc.code.push(Instr::LocalGet(i as u16));
                fc.code.push(Instr::Store(MemKind::for_ctype(&p.ty), false));
                fc.define(&p.name, Slot::Mem(off, p.ty.clone()));
            } else {
                fc.define(&p.name, Slot::Reg(reg, p.ty.clone()));
            }
        }

        for s in &f.body {
            fc.stmt(s)?;
        }
        fc.code.push(Instr::RetVoid);

        Ok(Function {
            name: f.name.clone(),
            code: fc.code,
            n_regs: fc.n_regs,
            n_params: f.params.len() as u8,
            frame_mem: fc.mem_off,
            ret: f.ret.clone(),
            frame_vars: fc.frame_vars,
        })
    }

    fn record_frame_var(&mut self, name: &str, offset: u32, ty: &CType) {
        self.frame_vars.push(FrameVar {
            name: name.to_string(),
            offset,
            size: storage_size(ty).max(1) as u32,
        });
    }

    fn define(&mut self, name: &str, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), slot);
    }

    fn resolve(&self, name: &str) -> Option<Slot> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Some(s.clone());
            }
        }
        None
    }

    fn alloc_mem(&mut self, ty: &CType) -> u32 {
        let size = storage_size(ty).max(1) as u32;
        let off = self.mem_off;
        self.mem_off += (size + 7) & !7;
        off
    }

    // ------------------------------------------------------- statements --

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match &s.kind {
            StmtKind::Expr(None) => Ok(()),
            StmtKind::Expr(Some(e)) => {
                self.expr(e, false)?;
                Ok(())
            }
            StmtKind::Decl(d) => self.decl(d),
            StmtKind::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for st in stmts {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                Ok(())
            }
            StmtKind::If(cond, then, els) => {
                self.expr(cond, true)?;
                let jz = self.emit_patch(Instr::JumpIfZero(0));
                self.stmt(then)?;
                if let Some(e) = els {
                    let jend = self.emit_patch(Instr::Jump(0));
                    self.patch(jz);
                    self.stmt(e)?;
                    self.patch(jend);
                } else {
                    self.patch(jz);
                }
                Ok(())
            }
            StmtKind::While(cond, body) => {
                let head = self.code.len();
                self.expr(cond, true)?;
                let jz = self.emit_patch(Instr::JumpIfZero(0));
                self.loops.push(BreakScope::loop_scope());
                self.stmt(body)?;
                self.code.push(Instr::Jump(head as u32));
                let scope = self.loops.pop().expect("loop stack");
                self.patch(jz);
                let end = self.code.len() as u32;
                for b in scope.breaks {
                    self.set_target(b, end);
                }
                for c in scope.continues.expect("loop scope") {
                    self.set_target(c, head as u32);
                }
                Ok(())
            }
            StmtKind::DoWhile(body, cond) => {
                let head = self.code.len();
                self.loops.push(BreakScope::loop_scope());
                self.stmt(body)?;
                let cond_at = self.code.len();
                self.expr(cond, true)?;
                self.code.push(Instr::JumpIfNotZero(head as u32));
                let scope = self.loops.pop().expect("loop stack");
                let end = self.code.len() as u32;
                for b in scope.breaks {
                    self.set_target(b, end);
                }
                for c in scope.continues.expect("loop scope") {
                    self.set_target(c, cond_at as u32);
                }
                Ok(())
            }
            StmtKind::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                match init {
                    Some(ForInit::Decl(d)) => self.decl(d)?,
                    Some(ForInit::Expr(e)) => {
                        self.expr(e, false)?;
                    }
                    None => {}
                }
                let head = self.code.len();
                let jz = match cond {
                    Some(c) => {
                        self.expr(c, true)?;
                        Some(self.emit_patch(Instr::JumpIfZero(0)))
                    }
                    None => None,
                };
                self.loops.push(BreakScope::loop_scope());
                self.stmt(body)?;
                let step_at = self.code.len();
                if let Some(st) = step {
                    self.expr(st, false)?;
                }
                self.code.push(Instr::Jump(head as u32));
                let scope = self.loops.pop().expect("loop stack");
                if let Some(jz) = jz {
                    self.patch(jz);
                }
                let end = self.code.len() as u32;
                for b in scope.breaks {
                    self.set_target(b, end);
                }
                for c in scope.continues.expect("loop scope") {
                    self.set_target(c, step_at as u32);
                }
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Switch(scrutinee, body) => self.switch(scrutinee, body),
            StmtKind::Case(_) | StmtKind::Default => {
                Err(CompileError::new("case/default label outside a switch"))
            }
            StmtKind::Return(e) => {
                match e {
                    Some(e) => {
                        let ty = self.expr(e, true)?;
                        self.convert(&ty, &self.ret_ty.clone());
                        self.code.push(Instr::Ret);
                    }
                    None => self.code.push(Instr::RetVoid),
                }
                Ok(())
            }
            StmtKind::Break => {
                let at = self.emit_patch(Instr::Jump(0));
                self.loops
                    .last_mut()
                    .ok_or_else(|| CompileError::new("break outside loop or switch"))?
                    .breaks
                    .push(at);
                Ok(())
            }
            StmtKind::Continue => {
                let at = self.emit_patch(Instr::Jump(0));
                // Continue skips switch scopes and targets the nearest loop.
                let scope = self
                    .loops
                    .iter_mut()
                    .rev()
                    .find(|l| l.continues.is_some())
                    .ok_or_else(|| CompileError::new("continue outside loop"))?;
                scope
                    .continues
                    .as_mut()
                    .expect("filtered on is_some")
                    .push(at);
                Ok(())
            }
        }
    }

    /// Compiles `switch (scrutinee) { case ...: ... }` with C fallthrough
    /// semantics: the dispatch header compares the scrutinee against each
    /// top-level `case` label in order, then jumps to `default:` (or past
    /// the switch). `break` exits; `continue` passes to the enclosing loop.
    fn switch(&mut self, scrutinee: &Expr, body: &[Stmt]) -> Result<(), CompileError> {
        let st = self.expr(scrutinee, true)?;
        self.convert(&st, &CType::Int);
        let tmp = self.n_regs;
        self.n_regs += 1;
        self.code.push(Instr::LocalSet(tmp));

        // Dispatch header: one conditional jump per top-level case label.
        let mut dispatch: Vec<(usize, usize)> = Vec::new(); // (body idx, patch site)
        let mut default_jump: Option<(usize, usize)> = None;
        for (i, stmt) in body.iter().enumerate() {
            match &stmt.kind {
                StmtKind::Case(v) => {
                    self.code.push(Instr::LocalGet(tmp));
                    self.code.push(Instr::PushI(*v));
                    self.code.push(Instr::CmpEq);
                    let at = self.emit_patch(Instr::JumpIfNotZero(0));
                    dispatch.push((i, at));
                }
                StmtKind::Default => {
                    if default_jump.is_some() {
                        return Err(CompileError::new("multiple default labels in switch"));
                    }
                    default_jump = Some((i, 0));
                }
                _ => {}
            }
        }
        let fallback = self.emit_patch(Instr::Jump(0));
        if let Some((i, _)) = default_jump {
            default_jump = Some((i, fallback));
        }

        // Body with labels resolved to code positions.
        self.scopes.push(HashMap::new());
        self.loops.push(BreakScope::switch_scope());
        let mut label_pos: Vec<(usize, u32)> = Vec::new();
        for (i, stmt) in body.iter().enumerate() {
            if matches!(stmt.kind, StmtKind::Case(_) | StmtKind::Default) {
                label_pos.push((i, self.code.len() as u32));
                continue;
            }
            self.stmt(stmt)?;
        }
        let scope = self.loops.pop().expect("switch scope");
        self.scopes.pop();
        let end = self.code.len() as u32;
        for b in scope.breaks {
            self.set_target(b, end);
        }
        for (i, at) in dispatch {
            let target = label_pos
                .iter()
                .find(|(li, _)| *li == i)
                .map(|(_, pos)| *pos)
                .expect("label recorded");
            self.set_target(at, target);
        }
        match default_jump {
            Some((i, at)) => {
                let target = label_pos
                    .iter()
                    .find(|(li, _)| *li == i)
                    .map(|(_, pos)| *pos)
                    .expect("default recorded");
                self.set_target(at, target);
            }
            None => self.set_target(fallback, end),
        }
        Ok(())
    }

    fn decl(&mut self, d: &Declaration) -> Result<(), CompileError> {
        for v in &d.vars {
            let memory_resident = v.ty.is_array() || self.addr_taken.contains(&v.name);
            if memory_resident {
                let off = self.alloc_mem(&v.ty);
                self.record_frame_var(&v.name, off, &v.ty);
                self.define(&v.name, Slot::Mem(off, v.ty.clone()));
                match (&v.init, &v.ty) {
                    (Some(init), CType::Array(elem, len)) => {
                        let ExprKind::InitList(items) = &init.kind else {
                            return Err(CompileError::new(format!(
                                "array `{}` initializer must be a brace list",
                                v.name
                            )));
                        };
                        let stride = storage_stride(elem) as u32;
                        let kind = MemKind::for_ctype(elem);
                        let count = len.unwrap_or(items.len());
                        // Zero-fill then write the provided elements.
                        for i in 0..count as u32 {
                            self.code.push(Instr::LocalMemAddr(off + i * stride));
                            let item = items.get(i as usize);
                            match item {
                                Some(item) => {
                                    let ty = self.expr(item, true)?;
                                    self.convert(&ty, elem);
                                }
                                None => {
                                    if kind.is_float() {
                                        self.code.push(Instr::PushF(0.0));
                                    } else {
                                        self.code.push(Instr::PushI(0));
                                    }
                                }
                            }
                            self.code.push(Instr::Store(kind, false));
                        }
                    }
                    (Some(init), scalar) => {
                        self.code.push(Instr::LocalMemAddr(off));
                        let ty = self.expr(init, true)?;
                        self.convert(&ty, scalar);
                        self.code
                            .push(Instr::Store(MemKind::for_ctype(scalar), false));
                    }
                    (None, _) => {}
                }
            } else {
                let reg = self.n_regs;
                self.n_regs += 1;
                self.define(&v.name, Slot::Reg(reg, v.ty.clone()));
                if let Some(init) = &v.init {
                    let ty = self.expr(init, true)?;
                    self.convert(&ty, &v.ty);
                    self.code.push(Instr::LocalSet(reg));
                }
            }
        }
        Ok(())
    }

    fn emit_patch(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        self.set_target(at, target);
    }

    fn set_target(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    // ------------------------------------------------------ expressions --

    /// Emits conversion instructions taking a value of type `from` to
    /// type `to` (only the float/int boundary matters at runtime).
    fn convert(&mut self, from: &CType, to: &CType) {
        let ff = from.is_float();
        let tf = to.is_float();
        if ff && !tf {
            self.code.push(Instr::F2I);
        } else if !ff && tf {
            self.code.push(Instr::I2F);
        }
    }

    /// The static type of an expression, without emitting code.
    fn type_of(&self, e: &Expr) -> CType {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => CType::Int,
            ExprKind::CharLit(_) => CType::Char,
            ExprKind::FloatLit(_) => CType::Double,
            ExprKind::StrLit(_) => CType::Char.ptr_to(),
            ExprKind::Ident(name) => match self.resolve(name) {
                Some(Slot::Reg(_, t)) | Some(Slot::Mem(_, t)) => t,
                None => match self.c.globals.get(name) {
                    Some((_, t)) => t.clone(),
                    None => CType::Int,
                },
            },
            ExprKind::Unary(UnaryOp::Addr, inner) => self.type_of(inner).ptr_to(),
            ExprKind::Unary(UnaryOp::Deref, inner) => match self.type_of(inner) {
                CType::Pointer(t) | CType::Array(t, _) => *t,
                _ => CType::Int,
            },
            ExprKind::Unary(UnaryOp::Not, _) => CType::Int,
            ExprKind::Unary(_, inner) | ExprKind::PostIncDec(inner, _) => self.type_of(inner),
            ExprKind::Binary(op, l, r) => {
                if op.is_comparison() || matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
                    return CType::Int;
                }
                let (tl, tr) = (self.type_of(l), self.type_of(r));
                if tl.is_pointer() || tl.is_array() {
                    tl.decay()
                } else if tr.is_pointer() || tr.is_array() {
                    tr.decay()
                } else if tl.is_float() || tr.is_float() {
                    CType::Double
                } else {
                    tl
                }
            }
            ExprKind::Assign(_, l, _) => self.type_of(l),
            ExprKind::Ternary(_, t, f) => {
                let (tt, tf_) = (self.type_of(t), self.type_of(f));
                if tt.is_float() || tf_.is_float() {
                    CType::Double
                } else {
                    tt
                }
            }
            ExprKind::Call(callee, _) => {
                if let Some(name) = callee.as_ident() {
                    if let Some((ret, _)) = self.c.func_sigs.get(name) {
                        return ret.clone();
                    }
                    match Intrinsic::from_name(name) {
                        Some(
                            Intrinsic::Sqrt
                            | Intrinsic::Fabs
                            | Intrinsic::Wtime
                            | Intrinsic::RcceWtime,
                        ) => return CType::Double,
                        Some(_) => return CType::Int,
                        None => {}
                    }
                }
                CType::Int
            }
            ExprKind::Index(base, _) => match self.type_of(base) {
                CType::Pointer(t) | CType::Array(t, _) => *t,
                _ => CType::Int,
            },
            ExprKind::Member(_, _, _) => CType::Int,
            ExprKind::Cast(t, _) => t.clone(),
            ExprKind::Comma(_, r) => self.type_of(r),
            ExprKind::InitList(_) => CType::Int,
        }
    }

    /// Compiles `e`; when `want` is true its value is left on the stack.
    /// Returns the expression's static type.
    fn expr(&mut self, e: &Expr, want: bool) -> Result<CType, CompileError> {
        let ty = self.expr_value(e, want)?;
        Ok(ty)
    }

    fn expr_value(&mut self, e: &Expr, want: bool) -> Result<CType, CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                if want {
                    self.code.push(Instr::PushI(*v));
                }
                Ok(CType::Int)
            }
            ExprKind::CharLit(c) => {
                if want {
                    self.code.push(Instr::PushI(*c as i64));
                }
                Ok(CType::Char)
            }
            ExprKind::FloatLit(v) => {
                if want {
                    self.code.push(Instr::PushF(*v));
                }
                Ok(CType::Double)
            }
            ExprKind::StrLit(s) => {
                let addr = self.c.intern(s);
                if want {
                    self.code.push(Instr::PushI(addr as i64));
                }
                Ok(CType::Char.ptr_to())
            }
            ExprKind::Ident(name) => self.ident_value(name, want),
            ExprKind::SizeofType(t) => {
                if want {
                    self.code.push(Instr::PushI(t.mem_size() as i64));
                }
                Ok(CType::Int)
            }
            ExprKind::SizeofExpr(inner) => {
                let t = self.type_of(inner);
                if want {
                    self.code.push(Instr::PushI(t.mem_size() as i64));
                }
                Ok(CType::Int)
            }
            ExprKind::Cast(target, inner) => {
                let from = self.expr(inner, want)?;
                if want {
                    self.convert(&from, target);
                }
                Ok(target.clone())
            }
            ExprKind::Unary(op, inner) => self.unary(*op, inner, want),
            ExprKind::PostIncDec(inner, inc) => self.post_inc_dec(inner, *inc, want),
            ExprKind::Binary(op, l, r) => self.binary(*op, l, r, want),
            ExprKind::Assign(op, l, r) => self.assign(*op, l, r, want),
            ExprKind::Ternary(c, t, f) => {
                let result_ty = self.type_of(e);
                self.expr(c, true)?;
                let jz = self.emit_patch(Instr::JumpIfZero(0));
                let tt = self.expr(t, want)?;
                if want {
                    self.convert(&tt, &result_ty);
                }
                let jend = self.emit_patch(Instr::Jump(0));
                self.patch(jz);
                let tf = self.expr(f, want)?;
                if want {
                    self.convert(&tf, &result_ty);
                }
                self.patch(jend);
                Ok(result_ty)
            }
            ExprKind::Comma(l, r) => {
                self.expr(l, false)?;
                self.expr(r, want)
            }
            ExprKind::Call(callee, args) => self.call(callee, args, want),
            ExprKind::Index(base, idx) => {
                let elem = self.addr_of_index(base, idx)?;
                let kind = MemKind::for_ctype(&elem);
                if elem.is_array() {
                    // Multi-dimensional: the "value" is the decayed row
                    // address already on the stack.
                    if !want {
                        self.code.push(Instr::Pop);
                    }
                    return Ok(elem.decay());
                }
                self.code.push(Instr::Load(kind));
                if !want {
                    self.code.push(Instr::Pop);
                }
                Ok(elem)
            }
            ExprKind::Member(_, _, _) => {
                Err(CompileError::new("struct member access is not supported"))
            }
            ExprKind::InitList(_) => {
                Err(CompileError::new("brace initializer outside a declaration"))
            }
        }
    }

    fn ident_value(&mut self, name: &str, want: bool) -> Result<CType, CompileError> {
        if let Some(slot) = self.resolve(name) {
            return match slot {
                Slot::Reg(r, t) => {
                    if want {
                        self.code.push(Instr::LocalGet(r));
                    }
                    Ok(t)
                }
                Slot::Mem(off, t) => {
                    if t.is_array() {
                        if want {
                            self.code.push(Instr::LocalMemAddr(off));
                        }
                        Ok(t.decay())
                    } else {
                        if want {
                            self.code.push(Instr::LocalMemAddr(off));
                            self.code.push(Instr::Load(MemKind::for_ctype(&t)));
                        }
                        Ok(t)
                    }
                }
            };
        }
        if let Some((addr, t)) = self.c.globals.get(name).cloned() {
            if t.is_array() {
                if want {
                    self.code.push(Instr::PushI(addr as i64));
                }
                return Ok(t.decay());
            }
            if want {
                self.code.push(Instr::PushI(addr as i64));
                self.code.push(Instr::Load(MemKind::for_ctype(&t)));
            }
            return Ok(t);
        }
        if let Some(idx) = self.c.func_index.get(name) {
            if want {
                self.code.push(Instr::PushI(i64::from(*idx)));
            }
            return Ok(CType::Void.ptr_to());
        }
        // Library constants.
        match name {
            "NULL" | "RCCE_COMM_WORLD" => {
                if want {
                    self.code.push(Instr::PushI(0));
                }
                Ok(CType::Void.ptr_to())
            }
            _ => Err(CompileError::new(format!("unknown identifier `{name}`"))),
        }
    }

    /// Compiles the address of `base[idx]`, returning the element type.
    fn addr_of_index(&mut self, base: &Expr, idx: &Expr) -> Result<CType, CompileError> {
        let bt = self.expr(base, true)?; // pointer value (arrays decay)
        let elem = match &bt {
            CType::Pointer(t) => (**t).clone(),
            CType::Array(t, _) => (**t).clone(),
            _ => return Err(CompileError::new(format!("indexing non-pointer type {bt}"))),
        };
        let it = self.expr(idx, true)?;
        self.convert(&it, &CType::Int);
        let stride = storage_size(&elem).max(1);
        if stride != 1 {
            self.code.push(Instr::PushI(stride as i64));
            self.code.push(Instr::Mul);
        }
        self.code.push(Instr::Add);
        Ok(elem)
    }

    /// Compiles an lvalue's address onto the stack, returning the object
    /// type. Register locals have no address (the compiler guarantees
    /// address-taken locals are memory-resident).
    fn addr_of(&mut self, e: &Expr) -> Result<CType, CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.resolve(name) {
                    return match slot {
                        Slot::Mem(off, t) => {
                            self.code.push(Instr::LocalMemAddr(off));
                            Ok(t)
                        }
                        Slot::Reg(_, _) => Err(CompileError::new(format!(
                            "taking address of register local `{name}`"
                        ))),
                    };
                }
                if let Some((addr, t)) = self.c.globals.get(name).cloned() {
                    self.code.push(Instr::PushI(addr as i64));
                    return Ok(t);
                }
                // Library pseudo-objects whose address is opaque to the
                // program (e.g. `&RCCE_COMM_WORLD`).
                if matches!(name.as_str(), "NULL" | "RCCE_COMM_WORLD") {
                    self.code.push(Instr::PushI(0));
                    return Ok(CType::Int);
                }
                Err(CompileError::new(format!("unknown lvalue `{name}`")))
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                let t = self.expr(inner, true)?;
                match t {
                    CType::Pointer(p) => Ok(*p),
                    CType::Array(p, _) => Ok(*p),
                    other => Err(CompileError::new(format!(
                        "dereferencing non-pointer {other}"
                    ))),
                }
            }
            ExprKind::Index(base, idx) => self.addr_of_index(base, idx),
            ExprKind::Cast(_, inner) => self.addr_of(inner),
            _ => Err(CompileError::new("expression is not an lvalue")),
        }
    }

    fn unary(&mut self, op: UnaryOp, inner: &Expr, want: bool) -> Result<CType, CompileError> {
        match op {
            UnaryOp::Plus => self.expr(inner, want),
            UnaryOp::Neg => {
                let t = self.expr(inner, want)?;
                if want {
                    self.code.push(Instr::Neg);
                }
                Ok(t)
            }
            UnaryOp::Not => {
                self.expr(inner, want)?;
                if want {
                    self.code.push(Instr::Not);
                }
                Ok(CType::Int)
            }
            UnaryOp::BitNot => {
                let t = self.expr(inner, want)?;
                if want {
                    self.code.push(Instr::BitNot);
                }
                Ok(t)
            }
            UnaryOp::Addr => {
                let t = self.addr_of(inner)?;
                if !want {
                    self.code.push(Instr::Pop);
                }
                Ok(t.ptr_to())
            }
            UnaryOp::Deref => {
                let t = self.expr(inner, true)?;
                let pointee = match t {
                    CType::Pointer(p) | CType::Array(p, _) => *p,
                    other => {
                        return Err(CompileError::new(format!(
                            "dereferencing non-pointer {other}"
                        )))
                    }
                };
                self.code.push(Instr::Load(MemKind::for_ctype(&pointee)));
                if !want {
                    self.code.push(Instr::Pop);
                }
                Ok(pointee)
            }
            UnaryOp::PreInc | UnaryOp::PreDec => {
                let add = op == UnaryOp::PreInc;
                self.inc_dec_pre(inner, add, want)
            }
        }
    }

    /// `++x` / `--x` with optional result.
    fn inc_dec_pre(&mut self, inner: &Expr, add: bool, want: bool) -> Result<CType, CompileError> {
        // Register local fast path.
        if let ExprKind::Ident(name) = &inner.kind {
            if let Some(Slot::Reg(r, t)) = self.resolve(name) {
                self.code.push(Instr::LocalGet(r));
                self.push_one(&t);
                self.code.push(if add { Instr::Add } else { Instr::Sub });
                if want {
                    self.code.push(Instr::Dup);
                }
                self.code.push(Instr::LocalSet(r));
                return Ok(t);
            }
        }
        let t = self.addr_of(inner)?;
        let kind = MemKind::for_ctype(&t);
        self.code.push(Instr::Dup);
        self.code.push(Instr::Load(kind));
        self.push_one(&t);
        self.code.push(if add { Instr::Add } else { Instr::Sub });
        self.code.push(Instr::Store(kind, want));
        Ok(t)
    }

    fn post_inc_dec(&mut self, inner: &Expr, inc: bool, want: bool) -> Result<CType, CompileError> {
        if !want {
            return self.inc_dec_pre(inner, inc, false);
        }
        // Register local fast path.
        if let ExprKind::Ident(name) = &inner.kind {
            if let Some(Slot::Reg(r, t)) = self.resolve(name) {
                self.code.push(Instr::LocalGet(r)); // old
                self.code.push(Instr::Dup);
                self.push_one(&t);
                self.code.push(if inc { Instr::Add } else { Instr::Sub });
                self.code.push(Instr::LocalSet(r));
                return Ok(t);
            }
        }
        let t = self.addr_of(inner)?;
        let kind = MemKind::for_ctype(&t);
        // [a] -> [a a] -> [a old] -> [a old old] -> [old old a]
        // -> [old a old] -> [old a new] -> [old]
        self.code.push(Instr::Dup);
        self.code.push(Instr::Load(kind));
        self.code.push(Instr::Dup);
        self.code.push(Instr::Rot3);
        self.code.push(Instr::Swap);
        self.push_one(&t);
        self.code.push(if inc { Instr::Add } else { Instr::Sub });
        self.code.push(Instr::Store(kind, false));
        Ok(t)
    }

    /// Pushes 1 (or the pointer stride) of the right flavour for `t`.
    fn push_one(&mut self, t: &CType) {
        if t.is_float() {
            self.code.push(Instr::PushF(1.0));
        } else if let CType::Pointer(inner) = t {
            self.code
                .push(Instr::PushI(storage_size(inner).max(1) as i64));
        } else {
            self.code.push(Instr::PushI(1));
        }
    }

    fn binary(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        want: bool,
    ) -> Result<CType, CompileError> {
        use BinaryOp::*;
        if matches!(op, LogAnd | LogOr) {
            return self.logical(op, l, r, want);
        }
        let tl = self.expr(l, true)?;
        let tr = self.expr(r, true)?;
        // Pointer arithmetic scaling.
        let l_ptr = tl.is_pointer() || tl.is_array();
        let r_ptr = tr.is_pointer() || tr.is_array();
        let result = if matches!(op, Add | Sub) && l_ptr && !r_ptr {
            let stride = self.elem_stride(&tl);
            if stride != 1 {
                self.code.push(Instr::PushI(stride as i64));
                self.code.push(Instr::Mul);
            }
            self.emit_binop(op);
            tl.decay()
        } else if matches!(op, Add) && r_ptr && !l_ptr {
            let stride = self.elem_stride(&tr);
            if stride != 1 {
                self.code.push(Instr::Swap);
                self.code.push(Instr::PushI(stride as i64));
                self.code.push(Instr::Mul);
                self.code.push(Instr::Swap);
            }
            self.emit_binop(op);
            tr.decay()
        } else if matches!(op, Sub) && l_ptr && r_ptr {
            let stride = self.elem_stride(&tl);
            self.emit_binop(op);
            if stride != 1 {
                self.code.push(Instr::PushI(stride as i64));
                self.code.push(Instr::Div);
            }
            CType::Int
        } else {
            // Usual arithmetic conversions.
            let float = tl.is_float() || tr.is_float();
            if float {
                if !tr.is_float() {
                    self.code.push(Instr::I2F);
                }
                if !tl.is_float() {
                    self.code.push(Instr::Swap);
                    self.code.push(Instr::I2F);
                    self.code.push(Instr::Swap);
                }
            }
            self.emit_binop(op);
            if op.is_comparison() {
                CType::Int
            } else if float {
                CType::Double
            } else {
                // Keep the wider integer type.
                if tl == CType::Long || tr == CType::Long || tl == CType::LongLong {
                    CType::Long
                } else {
                    tl
                }
            }
        };
        if !want {
            self.code.push(Instr::Pop);
        }
        Ok(result)
    }

    fn elem_stride(&self, t: &CType) -> usize {
        match t {
            CType::Pointer(inner) | CType::Array(inner, _) => storage_size(inner).max(1),
            _ => 1,
        }
    }

    fn emit_binop(&mut self, op: BinaryOp) {
        use BinaryOp::*;
        self.code.push(match op {
            Add => Instr::Add,
            Sub => Instr::Sub,
            Mul => Instr::Mul,
            Div => Instr::Div,
            Rem => Instr::Rem,
            Shl => Instr::Shl,
            Shr => Instr::Shr,
            BitAnd => Instr::BitAnd,
            BitOr => Instr::BitOr,
            BitXor => Instr::BitXor,
            Lt => Instr::CmpLt,
            Le => Instr::CmpLe,
            Gt => Instr::CmpGt,
            Ge => Instr::CmpGe,
            Eq => Instr::CmpEq,
            Ne => Instr::CmpNe,
            LogAnd | LogOr => unreachable!("handled by logical()"),
        });
    }

    fn logical(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        want: bool,
    ) -> Result<CType, CompileError> {
        self.expr(l, true)?;
        match op {
            BinaryOp::LogAnd => {
                let jz = self.emit_patch(Instr::JumpIfZero(0));
                self.expr(r, true)?;
                let jz2 = self.emit_patch(Instr::JumpIfZero(0));
                self.code.push(Instr::PushI(1));
                let jend = self.emit_patch(Instr::Jump(0));
                self.patch(jz);
                self.patch(jz2);
                self.code.push(Instr::PushI(0));
                self.patch(jend);
            }
            BinaryOp::LogOr => {
                let jnz = self.emit_patch(Instr::JumpIfNotZero(0));
                self.expr(r, true)?;
                let jnz2 = self.emit_patch(Instr::JumpIfNotZero(0));
                self.code.push(Instr::PushI(0));
                let jend = self.emit_patch(Instr::Jump(0));
                self.patch(jnz);
                self.patch(jnz2);
                self.code.push(Instr::PushI(1));
                self.patch(jend);
            }
            _ => unreachable!(),
        }
        if !want {
            self.code.push(Instr::Pop);
        }
        Ok(CType::Int)
    }

    fn assign(
        &mut self,
        op: AssignOp,
        l: &Expr,
        r: &Expr,
        want: bool,
    ) -> Result<CType, CompileError> {
        // Register local destination.
        if let ExprKind::Ident(name) = &l.kind {
            if let Some(Slot::Reg(reg, t)) = self.resolve(name) {
                match op.binary_op() {
                    None => {
                        let rt = self.expr(r, true)?;
                        self.convert(&rt, &t);
                    }
                    Some(bop) => {
                        // Pointer compound add/sub on register pointer.
                        let wrapped_l = Expr {
                            id: l.id,
                            kind: ExprKind::Ident(name.clone()),
                            span: l.span,
                        };
                        let res = self.binary(bop, &wrapped_l, r, true)?;
                        self.convert(&res, &t);
                    }
                }
                if want {
                    self.code.push(Instr::Dup);
                }
                self.code.push(Instr::LocalSet(reg));
                return Ok(t);
            }
        }
        // Memory destination.
        let t = self.addr_of(l)?;
        let kind = MemKind::for_ctype(&t);
        match op.binary_op() {
            None => {
                let rt = self.expr(r, true)?;
                self.convert(&rt, &t);
            }
            Some(bop) => {
                // [a] -> [a a] -> [a old] -> [a old rhs] -> [a res]
                self.code.push(Instr::Dup);
                self.code.push(Instr::Load(kind));
                let rt = self.expr(r, true)?;
                // Usual conversions between old (type t) and rhs.
                let float = t.is_float() || rt.is_float();
                if float {
                    if !rt.is_float() {
                        self.code.push(Instr::I2F);
                    }
                    if !t.is_float() {
                        self.code.push(Instr::Swap);
                        self.code.push(Instr::I2F);
                        self.code.push(Instr::Swap);
                    }
                }
                // Pointer compound (p += n): scale.
                if (t.is_pointer()) && matches!(bop, BinaryOp::Add | BinaryOp::Sub) {
                    let stride = self.elem_stride(&t);
                    if stride != 1 {
                        self.code.push(Instr::PushI(stride as i64));
                        self.code.push(Instr::Mul);
                    }
                }
                self.emit_binop(bop);
                if float && !t.is_float() {
                    self.code.push(Instr::F2I);
                }
            }
        }
        self.code.push(Instr::Store(kind, want));
        Ok(t)
    }

    fn call(&mut self, callee: &Expr, args: &[Expr], want: bool) -> Result<CType, CompileError> {
        let Some(name) = callee.as_ident() else {
            return Err(CompileError::new("indirect calls are not supported"));
        };
        let name = name.to_string();

        // User-defined function with a body.
        if let Some(&idx) = self.c.func_index.get(&name) {
            let (ret, param_tys) = self.c.func_sigs[&name].clone();
            for (i, a) in args.iter().enumerate() {
                let at = self.expr(a, true)?;
                if let Some(pt) = param_tys.get(i) {
                    self.convert(&at, pt);
                }
            }
            self.code.push(Instr::Call(idx, args.len() as u8));
            if !want {
                self.code.push(Instr::Pop);
            }
            return Ok(ret);
        }

        // Intrinsic.
        if let Some(intr) = Intrinsic::from_name(&name) {
            // pthread_create's third argument is a function: it compiles
            // to the function index via ident_value.
            for a in args {
                self.expr(a, true)?;
            }
            self.code.push(Instr::CallIntrinsic(intr, args.len() as u8));
            if !want {
                self.code.push(Instr::Pop);
            }
            let ret = match intr {
                Intrinsic::Sqrt | Intrinsic::Fabs | Intrinsic::Wtime | Intrinsic::RcceWtime => {
                    CType::Double
                }
                Intrinsic::Malloc | Intrinsic::RcceShmalloc | Intrinsic::RcceMpbMalloc => {
                    CType::Void.ptr_to()
                }
                _ => CType::Int,
            };
            return Ok(ret);
        }

        Err(CompileError::new(format!("unknown function `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;

    fn compile_src(src: &str) -> Program {
        compile(&parse(src).expect("parse")).expect("compile")
    }

    fn func_index(p: &Program, name: &str) -> usize {
        p.funcs.iter().position(|f| f.name == name).expect(name)
    }

    #[test]
    fn compiles_minimal_main() {
        let p = compile_src("int main() { return 0; }");
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.entry, 0);
        assert!(p.funcs[0].code.contains(&Instr::Ret));
    }

    #[test]
    fn globals_get_distinct_addresses_and_images() {
        let p = compile_src(
            "int a = 5; double b = 2.5; int c[3] = {1, 2, 3}; int main() { return 0; }",
        );
        let a = p.global("a").unwrap();
        let b = p.global("b").unwrap();
        let c = p.global("c").unwrap();
        assert!(a.addr >= GLOBALS_BASE);
        assert_ne!(a.addr, b.addr);
        assert_ne!(b.addr, c.addr);
        assert_eq!(c.storage, 12);
        // Images: a=5 little-endian, c={1,2,3}.
        let img_a = p.image.iter().find(|(ad, _)| *ad == a.addr).unwrap();
        assert_eq!(&img_a.1[..4], &[5, 0, 0, 0]);
        let img_c = p.image.iter().find(|(ad, _)| *ad == c.addr).unwrap();
        assert_eq!(img_c.1.len(), 12);
        assert_eq!(&img_c.1[4..8], &[2, 0, 0, 0]);
    }

    #[test]
    fn partial_array_init_zero_fills() {
        let p = compile_src("int sum[3] = {0}; int main() { return 0; }");
        let g = p.global("sum").unwrap();
        let img = p.image.iter().find(|(ad, _)| *ad == g.addr).unwrap();
        assert_eq!(img.1, vec![0u8; 12]);
    }

    #[test]
    fn scalar_locals_use_registers() {
        let p = compile_src("int main() { int x = 3; int y = x + 1; return y; }");
        let code = &p.funcs[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::LocalSet(_))));
        assert!(code.iter().any(|i| matches!(i, Instr::LocalGet(_))));
        // No memory traffic for register locals.
        assert!(!code.iter().any(|i| matches!(i, Instr::Load(_))));
        assert_eq!(p.funcs[0].frame_mem, 0);
    }

    #[test]
    fn address_taken_local_is_memory_resident() {
        let p = compile_src("int main() { int tmp = 1; int *p = &tmp; return *p; }");
        let f = &p.funcs[0];
        assert!(f.frame_mem >= 4);
        assert!(f.code.iter().any(|i| matches!(i, Instr::LocalMemAddr(_))));
    }

    #[test]
    fn local_array_is_memory_resident() {
        let p = compile_src("int main() { int a[4]; a[2] = 7; return a[2]; }");
        let f = &p.funcs[0];
        assert!(f.frame_mem >= 16);
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, Instr::Store(MemKind::I32, false))));
    }

    #[test]
    fn frame_vars_cover_memory_resident_locals() {
        let p = compile_src(
            "int main() { int a[4]; int tmp = 1; int *q = &tmp; a[0] = *q; return a[0]; }",
        );
        let f = &p.funcs[0];
        let names: Vec<&str> = f.frame_vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["a", "tmp"], "q stays in a register");
        let var_at = |offset| crate::opt::var_at(&f.frame_vars, offset);
        assert_eq!(var_at(0).unwrap().name, "a");
        assert_eq!(var_at(12).unwrap().name, "a", "a[3] inside array");
        let tmp = f.frame_vars.iter().find(|v| v.name == "tmp").unwrap();
        assert_eq!(var_at(tmp.offset).unwrap().name, "tmp");
        assert!(var_at(f.frame_mem).is_none(), "past the frame");
    }

    #[test]
    fn frame_vars_include_address_taken_params() {
        let p = compile_src(
            "int deref(int x) { int *p = &x; return *p; } int main() { return deref(3); }",
        );
        let f = p.funcs.iter().find(|f| f.name == "deref").unwrap();
        assert_eq!(f.frame_vars.len(), 1);
        assert_eq!(f.frame_vars[0].name, "x");
        assert_eq!(f.frame_vars[0].size, 4);
    }

    #[test]
    fn array_indexing_scales_by_stride() {
        let p = compile_src("double d[8]; int main() { d[3] = 1.5; return 0; }");
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::PushI(8)), "double stride 8: {code:?}");
        assert!(code.contains(&Instr::Store(MemKind::F64, false)));
    }

    #[test]
    fn int_division_stays_integral() {
        let p = compile_src("int main() { int a = 7; int b = 2; return a / b; }");
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::Div));
        assert!(!code.contains(&Instr::I2F));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        let p = compile_src(
            "int main() { double x = 4.0; int n = 2; double y = x / n; return (int)y; }",
        );
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::I2F), "{code:?}");
        assert!(code.contains(&Instr::F2I));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let err = compile(&parse("int main() { mystery(); return 0; }").unwrap()).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let err = compile(&parse("int main() { return nope; }").unwrap()).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn function_name_as_argument_pushes_index() {
        let p = compile_src(
            "void *tf(void *x) { return x; } int main() { pthread_t t; pthread_create(&t, NULL, tf, NULL); return 0; }",
        );
        let main_idx = func_index(&p, "main");
        let tf_idx = func_index(&p, "tf") as u32;
        let code = &p.funcs[main_idx].code;
        assert!(code.contains(&Instr::PushI(i64::from(tf_idx))), "{code:?}");
        assert!(code
            .iter()
            .any(|i| matches!(i, Instr::CallIntrinsic(Intrinsic::PthreadCreate, 4))));
    }

    #[test]
    fn string_literals_are_interned_once() {
        let p = compile_src(r#"int main() { printf("x"); printf("x"); printf("y"); return 0; }"#);
        assert_eq!(p.strings.len(), 2);
    }

    #[test]
    fn entry_falls_back_to_rcce_app() {
        let p = compile_src("int RCCE_APP(int *argc, char **argv) { return 0; }");
        assert_eq!(p.entry, 0);
    }

    #[test]
    fn missing_entry_is_an_error() {
        let err = compile(&parse("int f() { return 0; }").unwrap()).unwrap_err();
        assert!(err.to_string().contains("entry point"));
    }

    #[test]
    fn loops_produce_backward_jumps() {
        let p = compile_src(
            "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }",
        );
        let code = &p.funcs[0].code;
        let has_back_jump = code.iter().enumerate().any(|(at, i)| match i {
            Instr::Jump(t) => (*t as usize) < at,
            _ => false,
        });
        assert!(has_back_jump, "{code:?}");
    }

    #[test]
    fn break_and_continue_patch_correctly() {
        // Infinite loop with a break: all jump targets must be in bounds.
        let p = compile_src(
            "int main() { int i = 0; while (1) { i++; if (i > 5) break; if (i == 2) continue; } return i; }",
        );
        let code = &p.funcs[0].code;
        for ins in code {
            if let Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) = ins {
                assert!((*t as usize) <= code.len(), "target out of bounds: {ins:?}");
            }
        }
    }

    #[test]
    fn logical_ops_short_circuit_structure() {
        let p = compile_src("int main() { int a = 1; int b = 0; return a && b || !a; }");
        let code = &p.funcs[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::JumpIfZero(_))));
        assert!(code.iter().any(|i| matches!(i, Instr::JumpIfNotZero(_))));
    }

    #[test]
    fn sizeof_is_c_abi_size() {
        let p = compile_src("int main() { return sizeof(int) + sizeof(double); }");
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::PushI(4)));
        assert!(code.contains(&Instr::PushI(8)));
    }

    #[test]
    fn pointer_param_compiles() {
        let p = compile_src(
            "void fill(double *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 1.0; } int main() { return 0; }",
        );
        let fill = &p.funcs[func_index(&p, "fill")];
        assert_eq!(fill.n_params, 2);
        assert!(fill.code.contains(&Instr::Store(MemKind::F64, false)));
    }
}
