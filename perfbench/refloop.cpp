// The benchmark's reference loop: a fixed speed probe of the host.
//
// A small register machine (pre-decoded instructions, switch dispatch, a
// 4 KiB data memory) runs a fixed loop program: it walks the memory,
// branches on each byte and writes a running sum back. This is the shape
// of the work the emulator does, so the two slow down together when other
// tenants of a shared host take its caches and branch predictors. The code
// is the benchmark's own, compiled in a library of its own with fixed
// flags (CMakeLists.txt), so no change to the program moves its speed.
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

enum Op : uint8_t { Ld, St, Add, Xor, Shl, Andi, Addi, Brz, Brlt, Jmp, Halt };

struct Insn {
  Op op;
  uint8_t a, b, c;  // register operands
  int32_t imm;
};

constexpr uint32_t kMemMask = 4095;

// r0 = index, r1 = byte, r2 = sum, r3 = bit, r4 = end, r5 = scratch.
const std::vector<Insn>& program() {
  static const std::vector<Insn> prog = {
      {Ld, 1, 0, 0, 0},     // 0: r1 = mem[r0]
      {Andi, 3, 1, 0, 1},   // 1: r3 = r1 & 1
      {Brz, 3, 0, 0, 5},    // 2: if r3 == 0 goto 5
      {Add, 2, 2, 1, 0},    // 3: r2 += r1
      {Jmp, 0, 0, 0, 7},    // 4: goto 7
      {Shl, 5, 1, 0, 1},    // 5: r5 = r1 << 1
      {Xor, 2, 2, 5, 0},    // 6: r2 ^= r5
      {Addi, 2, 2, 0, 7},   // 7: r2 += 7
      {St, 2, 0, 0, 0},     // 8: mem[r0] = r2
      {Addi, 0, 0, 0, 1},   // 9: r0 += 1
      {Brlt, 0, 4, 0, 0},   // 10: if r0 < r4 goto 0
      {Halt, 0, 0, 0, 0},   // 11
  };
  return prog;
}

// Runs the program once over `end` bytes; returns instructions executed.
uint64_t run_once(const std::vector<Insn>& prog, std::vector<uint8_t>& mem,
                  uint32_t (&r)[8], uint32_t end) {
  r[0] = 0;
  r[4] = end;
  uint64_t n = 0;
  for (size_t pc = 0;; ++n) {
    const Insn& i = prog[pc++];
    switch (i.op) {
      case Ld: r[i.a] = mem[r[i.b] & kMemMask]; break;
      case St: mem[r[i.b] & kMemMask] = static_cast<uint8_t>(r[i.a]); break;
      case Add: r[i.a] = r[i.b] + r[i.c]; break;
      case Xor: r[i.a] = r[i.b] ^ r[i.c]; break;
      case Shl: r[i.a] = r[i.b] << i.imm; break;
      case Andi: r[i.a] = r[i.b] & static_cast<uint32_t>(i.imm); break;
      case Addi: r[i.a] = r[i.b] + static_cast<uint32_t>(i.imm); break;
      case Brz: if (r[i.a] == 0) pc = static_cast<size_t>(i.imm); break;
      case Brlt: if (r[i.a] < r[i.b]) pc = static_cast<size_t>(i.imm); break;
      case Jmp: pc = static_cast<size_t>(i.imm); break;
      case Halt: return n + 1;
    }
  }
}

}  // namespace

// Runs the reference for at least `ops` instructions; returns host
// nanoseconds per instruction. `check` receives the final sum, so the work
// cannot be optimized away; it is the same for every call with equal ops.
double reference_ns_per_op(uint64_t ops, uint32_t* check) {
  std::vector<uint8_t> mem(kMemMask + 1);
  for (uint32_t i = 0; i <= kMemMask; ++i)
    mem[i] = static_cast<uint8_t>(i * 131u + 17u);
  uint32_t r[8] = {};
  const auto& prog = program();
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t done = 0;
  while (done < ops) done += run_once(prog, mem, r, kMemMask + 1);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0).count();
  *check = r[2];
  return s / static_cast<double>(done) * 1e9;
}

}  // namespace perfbench
