/**
 * @file
 * JIT-layer tests: byte-exact assembler encodings (checked against
 * reference encodings from the Intel SDM), code-buffer lifecycle, and
 * compiler-level properties (code size, tier differences, trap-kind
 * bytes after ud2 islands).
 */
#include <gtest/gtest.h>

#include "jit/assembler.h"
#include "jit/code_buffer.h"
#include "jit/compiler.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace lnb::jit {
namespace {

std::vector<uint8_t>
assemble(const std::function<void(Assembler&)>& body)
{
    static uint8_t buffer[512];
    Assembler as(buffer, sizeof buffer);
    body(as);
    EXPECT_FALSE(as.overflow());
    return std::vector<uint8_t>(buffer, buffer + as.size());
}

TEST(Assembler, MovEncodings)
{
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR64(rax, rcx); }),
              (std::vector<uint8_t>{0x48, 0x89, 0xC8}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR32(rbx, rdx); }),
              (std::vector<uint8_t>{0x89, 0xD3}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR64(r15, r8); }),
              (std::vector<uint8_t>{0x4D, 0x89, 0xC7}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRI32(rax, 0x11223344); }),
              (std::vector<uint8_t>{0xB8, 0x44, 0x33, 0x22, 0x11}));
    EXPECT_EQ(
        assemble([](Assembler& a) { a.movRI64(rcx, 0x1122334455667788); }),
        (std::vector<uint8_t>{0x48, 0xB9, 0x88, 0x77, 0x66, 0x55, 0x44,
                              0x33, 0x22, 0x11}));
}

TEST(Assembler, MemoryOperands)
{
    // mov rax, [rbp+8] : REX.W 8B 85 disp32
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rbp, 8}); }),
              (std::vector<uint8_t>{0x48, 0x8B, 0x85, 0x08, 0x00, 0x00,
                                    0x00}));
    // rsp base needs a SIB byte.
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM32(rcx, {rsp, 4}); }),
              (std::vector<uint8_t>{0x8B, 0x8C, 0x24, 0x04, 0x00, 0x00,
                                    0x00}));
    // r12 (encoding 100b) also needs the SIB escape.
    EXPECT_EQ(assemble([](Assembler& a) { a.movMR64({r12, 0}, rax); }),
              (std::vector<uint8_t>{0x49, 0x89, 0x84, 0x24, 0x00, 0x00,
                                    0x00, 0x00}));
}

TEST(Assembler, AluAndShift)
{
    EXPECT_EQ(assemble([](Assembler& a) { a.addRR32(rax, rcx); }),
              (std::vector<uint8_t>{0x01, 0xC8}));
    EXPECT_EQ(assemble([](Assembler& a) { a.subRR64(rdx, rbx); }),
              (std::vector<uint8_t>{0x48, 0x29, 0xDA}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRI32(rax, 0x80000000u); }),
              (std::vector<uint8_t>{0x81, 0xF8, 0x00, 0x00, 0x00, 0x80}));
    // shl rax, 5 -> 48 C1 E0 05
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm64(4, rax, 5); }),
              (std::vector<uint8_t>{0x48, 0xC1, 0xE0, 0x05}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM32(0x00, rax,
                                                    {rbx, 16}); }),
              (std::vector<uint8_t>{0x03, 0x83, 0x10, 0x00, 0x00, 0x00}));
}

TEST(Assembler, FusedFormEncodings)
{
    using Bytes = std::vector<uint8_t>;
    // imul r, r/m, imm32 -> [REX] 69 /r id
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI32(rax, rcx,
                                                      0x12345678); }),
              (Bytes{0x69, 0xC1, 0x78, 0x56, 0x34, 0x12}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI32(r9, r10, -2); }),
              (Bytes{0x45, 0x69, 0xCA, 0xFE, 0xFF, 0xFF, 0xFF}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI64(rbx, rbx, 27); }),
              (Bytes{0x48, 0x69, 0xDB, 0x1B, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI64(r14, r14, 30); }),
              (Bytes{0x4D, 0x69, 0xF6, 0x1E, 0x00, 0x00, 0x00}));
    // op r, imm32 -> [REX] 81 /ext id
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI32(0, rbx, 5); }),
              (Bytes{0x81, 0xC3, 0x05, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI32(5, r12, 0x10); }),
              (Bytes{0x41, 0x81, 0xEC, 0x10, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI64(4, rax, 1); }),
              (Bytes{0x48, 0x81, 0xE0, 0x01, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI64(7, r13, -1); }),
              (Bytes{0x49, 0x81, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF}));
    // shift/rotate by imm8 -> [REX] C1 /ext ib
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm32(7, rbx, 31); }),
              (Bytes{0xC1, 0xFB, 0x1F}));
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm32(4, r8, 3); }),
              (Bytes{0x41, 0xC1, 0xE0, 0x03}));
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm64(0, rcx, 1); }),
              (Bytes{0x48, 0xC1, 0xC1, 0x01}));
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm64(5, r14, 63); }),
              (Bytes{0x49, 0xC1, 0xEE, 0x3F}));
    // cmp r, r/m -> [REX] 3B /r (memory) and 39 /r (register)
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRM32(rbx, {r15, 40}); }),
              (Bytes{0x41, 0x3B, 0x9F, 0x28, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRM32(r13, {r15, 8}); }),
              (Bytes{0x45, 0x3B, 0xAF, 0x08, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRM64(rax, {rbp, 16}); }),
              (Bytes{0x48, 0x3B, 0x85, 0x10, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRM64(r12, {r15, 0}); }),
              (Bytes{0x4D, 0x3B, 0xA7, 0x00, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRR32(rbx, r12); }),
              (Bytes{0x44, 0x39, 0xE3}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRR64(r13, r9); }),
              (Bytes{0x4D, 0x39, 0xCD}));
    // op r, [mem] and the SSE scalar memory forms of load+binop.
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM32(0x30, rbx,
                                                    {rax, 0}); }),
              (Bytes{0x33, 0x98, 0x00, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM64(0x28, r9,
                                                    {rax, 0}); }),
              (Bytes{0x4C, 0x2B, 0x88, 0x00, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.sseOpRM(0xF3, 0x58, xmm0,
                                                    {rax, 8}); }),
              (Bytes{0xF3, 0x0F, 0x58, 0x80, 0x08, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.sseOpRM(0xF2, 0x59, xmm10,
                                                    {rax, 0}); }),
              (Bytes{0xF2, 0x44, 0x0F, 0x59, 0x90, 0x00, 0x00, 0x00,
                     0x00}));
}

TEST(Assembler, SseEncodings)
{
    // addsd xmm0, xmm1 -> F2 0F 58 C1
    EXPECT_EQ(assemble([](Assembler& a) { a.addsd(xmm0, xmm1); }),
              (std::vector<uint8_t>{0xF2, 0x0F, 0x58, 0xC1}));
    // movsd xmm8, [rbp+0] -> F2 44 0F 10 85 00000000
    EXPECT_EQ(assemble([](Assembler& a) { a.movsdRM(xmm8, {rbp, 0}); }),
              (std::vector<uint8_t>{0xF2, 0x44, 0x0F, 0x10, 0x85, 0x00,
                                    0x00, 0x00, 0x00}));
    // cvttsd2si rax, xmm0 (64-bit) -> F2 48 0F 2C C0
    EXPECT_EQ(assemble([](Assembler& a) { a.cvttsd2si64(rax, xmm0); }),
              (std::vector<uint8_t>{0xF2, 0x48, 0x0F, 0x2C, 0xC0}));
    // roundsd xmm0, xmm0, 3 -> 66 0F 3A 0B C0 03
    EXPECT_EQ(assemble([](Assembler& a) { a.roundsd(xmm0, xmm0, 3); }),
              (std::vector<uint8_t>{0x66, 0x0F, 0x3A, 0x0B, 0xC0, 0x03}));
    // movq rax, xmm0 -> 66 48 0F 7E C0
    EXPECT_EQ(assemble([](Assembler& a) { a.movqRX(rax, xmm0); }),
              (std::vector<uint8_t>{0x66, 0x48, 0x0F, 0x7E, 0xC0}));
}

TEST(Assembler, HomeRegisterEncodings)
{
    // The forms register homes reach beyond the classic slot registers:
    // xmm2..xmm15 as slot and local homes, rsi/rdi/r11 as local homes,
    // and the memory-base add straight from the context. Displacements
    // and immediates use the disp32 / imm32 forms (GNU as would pick the
    // shorter disp8 / imm8 ones for these values).
    using Bytes = std::vector<uint8_t>;
    // movaps xmm2, xmm7 -> 0F 28 D7; movaps xmm15, xmm2 -> 44 0F 28 FA
    EXPECT_EQ(assemble([](Assembler& a) { a.movapsRR(xmm2, xmm7); }),
              (Bytes{0x0F, 0x28, 0xD7}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movapsRR(xmm15, xmm2); }),
              (Bytes{0x44, 0x0F, 0x28, 0xFA}));
    // movsd xmm7, [r15+8] / movsd [r15+16], xmm15
    EXPECT_EQ(assemble([](Assembler& a) { a.movsdRM(xmm7, {r15, 8}); }),
              (Bytes{0xF2, 0x41, 0x0F, 0x10, 0xBF, 0x08, 0x00, 0x00,
                     0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movsdMR({r15, 16}, xmm15); }),
              (Bytes{0xF2, 0x45, 0x0F, 0x11, 0xBF, 0x10, 0x00, 0x00,
                     0x00}));
    // addsd xmm2, xmm15 -> F2 41 0F 58 D7; addsd xmm15, xmm7 -> F2 44 ..
    EXPECT_EQ(assemble([](Assembler& a) { a.addsd(xmm2, xmm15); }),
              (Bytes{0xF2, 0x41, 0x0F, 0x58, 0xD7}));
    EXPECT_EQ(assemble([](Assembler& a) { a.addsd(xmm15, xmm7); }),
              (Bytes{0xF2, 0x44, 0x0F, 0x58, 0xFF}));

    // mov rsi, rdi -> 48 89 FE; mov r11d, esi -> 41 89 F3
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR64(rsi, rdi); }),
              (Bytes{0x48, 0x89, 0xFE}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR32(r11, rsi); }),
              (Bytes{0x41, 0x89, 0xF3}));
    // add rdi, r11 -> 4C 01 DF; add esi, 5 -> 81 C6 imm32
    EXPECT_EQ(assemble([](Assembler& a) { a.addRR64(rdi, r11); }),
              (Bytes{0x4C, 0x01, 0xDF}));
    EXPECT_EQ(assemble([](Assembler& a) { a.addRI32(rsi, 5); }),
              (Bytes{0x81, 0xC6, 0x05, 0x00, 0x00, 0x00}));
    // imul rsi, r11 -> 49 0F AF F3; imul edi, r11d, 7 -> 41 69 FB imm32
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRR64(rsi, r11); }),
              (Bytes{0x49, 0x0F, 0xAF, 0xF3}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI32(rdi, r11, 7); }),
              (Bytes{0x41, 0x69, 0xFB, 0x07, 0x00, 0x00, 0x00}));
    // cmp r11, rsi -> 49 39 F3; cmp edi, [r15+24] -> 41 3B BF disp32
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRR64(r11, rsi); }),
              (Bytes{0x49, 0x39, 0xF3}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRM32(rdi, {r15, 24}); }),
              (Bytes{0x41, 0x3B, 0xBF, 0x18, 0x00, 0x00, 0x00}));

    // add r64, [rbp+disp32]: the one-instruction memory-base add.
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM64(0x00, rax,
                                                    {rbp, 0x40}); }),
              (Bytes{0x48, 0x03, 0x85, 0x40, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM64(0x00, r11,
                                                    {rbp, 0x40}); }),
              (Bytes{0x4C, 0x03, 0x9D, 0x40, 0x00, 0x00, 0x00}));
}

TEST(Assembler, LabelsAndBranches)
{
    // Backward jump: label at 0, jmp at 0 -> rel32 = -5.
    auto bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.bind(label);
        a.jmp(label);
    });
    EXPECT_EQ(bytes, (std::vector<uint8_t>{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}));

    // Forward conditional branch is patched when bound.
    bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.jcc(Cond::e, label); // 6 bytes
        a.ud2();               // 2 bytes
        a.bind(label);
    });
    EXPECT_EQ(bytes, (std::vector<uint8_t>{0x0F, 0x84, 0x02, 0x00, 0x00,
                                           0x00, 0x0F, 0x0B}));
}

TEST(Assembler, OverflowIsReported)
{
    uint8_t tiny[4];
    Assembler as(tiny, sizeof tiny);
    as.movRI64(rax, 0x1122334455667788ull); // needs 10 bytes
    EXPECT_TRUE(as.overflow());
}

TEST(Assembler, ExecutesGeneratedCode)
{
    auto buffer = CodeBuffer::allocate(4096).takeValue();
    Assembler as(buffer->data(), buffer->capacity());
    // int f(int a, int b) { return a*2 + b; }  (SysV: edi, esi)
    as.movRR32(rax, rdi);
    as.addRR32(rax, rax);
    as.addRR32(rax, rsi);
    as.ret();
    ASSERT_TRUE(buffer->finalize(as.size()).isOk());
    auto fn = reinterpret_cast<int (*)(int, int)>(buffer->data());
    EXPECT_EQ(fn(20, 2), 42);
    EXPECT_EQ(fn(-3, 1), -5);
}

// ---------------------------------------------------------------------
// Compiler-level properties
// ---------------------------------------------------------------------

wasm::LoweredModule
lowerSample()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 4);
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t acc = f.addLocal(wasm::ValType::i32);
    auto exit = f.block();
    auto loop = f.loop();
    f.localGet(0);
    f.emit(wasm::Op::i32_eqz);
    f.brIf(exit);
    f.localGet(acc);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 16);
    f.emit(wasm::Op::i32_add);
    f.localSet(acc);
    f.localGet(0);
    f.i32Const(4);
    f.emit(wasm::Op::i32_sub);
    f.localSet(0);
    f.br(loop);
    f.end();
    f.end();
    f.localGet(acc);
    uint32_t idx = f.finish();
    mb.exportFunc("sum", idx);
    wasm::Module module = mb.build();
    EXPECT_TRUE(wasm::validateModule(module).isOk());
    return wasm::lowerModule(std::move(module)).takeValue();
}

TEST(Compiler, ProducesCodeForAllStrategies)
{
    ASSERT_TRUE(jitSupported());
    wasm::LoweredModule lowered = lowerSample();
    for (int s = 0; s < mem::kNumBoundsStrategies; s++) {
        JitOptions options;
        options.strategy = mem::BoundsStrategy(s);
        auto code = compileModule(lowered, options);
        ASSERT_TRUE(code.isOk()) << code.status().toString();
        EXPECT_GT(code.value()->codeBytes(), 32u);
        EXPECT_NE(code.value()->entry(0), nullptr);
        EXPECT_FALSE(code.value()->dumpFunction(0).empty());
    }
}

TEST(Compiler, SoftwareChecksEnlargeCode)
{
    wasm::LoweredModule lowered = lowerSample();
    JitOptions guard;
    guard.strategy = mem::BoundsStrategy::mprotect;
    JitOptions trap;
    trap.strategy = mem::BoundsStrategy::trap;
    size_t guard_bytes =
        compileModule(lowered, guard).value()->codeBytes();
    size_t trap_bytes = compileModule(lowered, trap).value()->codeBytes();
    // Inline compare+branch sequences cost code size the guard-page
    // strategy does not pay (paper SS2.3).
    EXPECT_GT(trap_bytes, guard_bytes);
}

TEST(Compiler, CheckEliminationShrinksOptTierTrapCode)
{
    // Two loads from the same address cell: the opt tier's redundant
    // bounds-check elimination should drop the second check.
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 0);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 0);
    f.emit(wasm::Op::i32_add);
    uint32_t idx = f.finish();
    mb.exportFunc("f", idx);
    wasm::Module module = mb.build();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();

    JitOptions base;
    base.strategy = mem::BoundsStrategy::trap;
    base.optimize = false;
    JitOptions opt = base;
    opt.optimize = true;
    size_t base_bytes = compileModule(lowered, base).value()->codeBytes();
    size_t opt_bytes = compileModule(lowered, opt).value()->codeBytes();
    EXPECT_LT(opt_bytes, base_bytes);
}

TEST(Compiler, StackCheckAblationShrinksPrologue)
{
    wasm::LoweredModule lowered = lowerSample();
    JitOptions checked;
    JitOptions unchecked;
    unchecked.stackChecks = false;
    size_t with_checks =
        compileModule(lowered, checked).value()->codeBytes();
    size_t without_checks =
        compileModule(lowered, unchecked).value()->codeBytes();
    EXPECT_GT(with_checks, without_checks);
}

} // namespace
} // namespace lnb::jit
