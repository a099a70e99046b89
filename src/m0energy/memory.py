"""STM32F0xx address space and Flash access timing.

Memory map:
    0x0000_0000  alias of Flash (boot remap), read/execute only
    0x0800_0000  Flash (default 64 KiB, at most 128 MiB), read/execute only
    0x2000_0000  RAM (default 8 KiB, at most 512 MiB)
    0x4000_0000  debug byte port: 1-byte writes append to captured output

Flash timing is governed by the WaitState count (0 or 1) and the PreFetch
buffer.  Flash is read in 32-bit words; the buffer holds the word last
fetched and, with prefetch, reads the next one ahead.  `fetch_stall` is
the one statement of the fetch rule: a fetch inside the held word is free,
any other word costs WaitState cycles, and with prefetch the word after
the held one is free too.  A taken branch, reset or a fault empties the
buffer, so a branch target pays in full even inside the word held at the
branch.  Data reads from Flash stall WaitState cycles, which the simulator
adds, and leave the buffer alone; RAM never stalls.

The rule needs no clock because WaitState is at most 1 and every
instruction takes at least a cycle: the read-ahead an instruction starts is
ready when the next one begins, and only the same instruction (a BL whose
halfwords straddle a word boundary) can reach it early.  So an
instruction's stall depends only on the word held before it, and
`block_stalls` prices a block's fetches once, when it is translated.  With
WaitState = 0 nothing stalls, so cycle counts do not depend on the
prefetch setting: `timing_class`, the one check of WaitState, says which
(WaitState, PreFetch) settings therefore run identically.
"""

from .errors import BadEntryError, InvalidConfigError, MalformedImageError, MemoryFault

FLASH_BASE = 0x08000000
RAM_BASE = 0x20000000
ALIAS_BASE = 0x00000000
DEBUG_ADDR = 0x40000000

DEFAULT_FLASH_SIZE = 64 * 1024
DEFAULT_RAM_SIZE = 8 * 1024

# Whether native word and halfword views of memory read little-endian values
_PROBE = memoryview(bytes(range(1, 9)))
RAM_VIEWS = _PROBE.cast("I")[0] == 0x04030201 and _PROBE.cast("H")[0] == 0x201


def timing_class(wait_states, prefetch):
    """The (wait_states, prefetch) a run under these settings behaves as.

    Settings with the same class execute the same instructions in the same
    cycles, with the same counters and fetch stalls, for every image and
    cycle budget: at zero wait states no fetch or data access stalls, so
    the prefetch buffer has nothing to hide.  Core frequency never enters:
    it only converts cycles into time.  Raises InvalidConfigError unless
    `wait_states` is the int 0 or 1 (not a bool or a float), the counts
    the clock-free rule holds for, and `prefetch` a bool (a truthy "off"
    would turn it on)."""
    if type(wait_states) is not int or wait_states not in (0, 1):
        raise InvalidConfigError("wait states must be 0 or 1, got %r"
                                 % (wait_states,))
    if type(prefetch) is not bool:
        raise InvalidConfigError("prefetch must be True or False, got %r"
                                 % (prefetch,))
    return wait_states, prefetch and wait_states == 1


def fetch_stall(words, held, wait_states, prefetch):
    """Stall cycles of an instruction fetching the Flash `words` (one, or
    two for a BL that straddles a word boundary) right after a fetch that
    left `held` buffered, None after reset, a taken branch or a fault.

    A word other than `held` costs the wait states, except that with
    prefetch `held + 4` is free: its read-ahead, started by an earlier
    instruction, is ready.  The read-ahead the instruction starts itself
    is not (a straddling BL entered cold pays for both words)."""
    ahead = {held + 4} if prefetch and held is not None else set()
    return wait_states * len(set(words) - {held} - ahead)


def block_stalls(code, wait_states, prefetch):
    """(cold, warm, stalls) of straight-line Flash `code`, (address, size)
    pairs, under these settings: the first instruction's fetch stall with
    nothing held and with the word at its address - 2 held, then each one's
    stall after the one before (0 for the first).  The one place a block's
    fetches are priced."""
    word = MemorySystem.fetch_word
    words = [[word(addr + k) for k in range(0, size, 2)] for addr, size in code]
    # the previous instruction ended in the word holding addr - 2
    stalls = [fetch_stall(w, word(addr - 2), wait_states, prefetch)
              for w, (addr, _size) in zip(words, code)]
    return (fetch_stall(words[0], None, wait_states, prefetch), stalls[0],
            [0] + stalls[1:])


class MemorySystem:
    """Flat memory image: the address space, with no timing."""

    def __init__(self, image, flash_size=DEFAULT_FLASH_SIZE,
                 ram_size=DEFAULT_RAM_SIZE):
        if len(image) < 8:
            raise MalformedImageError(
                "image is %d bytes; need at least an 8-byte vector table"
                % len(image))
        if flash_size > FLASH_BASE - ALIAS_BASE or ram_size > DEBUG_ADDR - RAM_BASE:
            raise MalformedImageError(  # checked before anything is allocated
                "the memory map holds at most %#x bytes of flash and %#x of "
                "RAM, got %#x and %#x" % (FLASH_BASE - ALIAS_BASE,
                                          DEBUG_ADDR - RAM_BASE, flash_size,
                                          ram_size))
        if len(image) > flash_size:
            raise MalformedImageError(
                "image is %d bytes but flash is %d" % (len(image), flash_size))
        if flash_size % 4 or ram_size % 4 or flash_size <= 0 or ram_size <= 0:
            raise MalformedImageError("memory sizes must be positive multiples of 4")
        self.flash_size = flash_size
        self.ram_size = ram_size
        # erased flash reads as 0xFF
        self.flash = bytearray(image).ljust(flash_size, b"\xff")
        self.ram = bytearray(ram_size)
        # word and halfword views, indexed by offset >> 2 and >> 1
        self.ram_words, self.ram_halves = (
            memoryview(self.ram).cast(f) if RAM_VIEWS else None for f in "IH")
        self.flash_halves = memoryview(self.flash).cast("H") if RAM_VIEWS else None
        self.debug_output = bytearray()

    # -- address classification -------------------------------------------

    def region(self, addr):
        if FLASH_BASE <= addr < FLASH_BASE + self.flash_size:
            return "flash"
        if RAM_BASE <= addr < RAM_BASE + self.ram_size:
            return "ram"
        if ALIAS_BASE <= addr < ALIAS_BASE + self.flash_size:
            return "alias"
        return None

    @staticmethod
    def _flash_offset(addr):
        # alias region mirrors flash; normalize to a flash offset
        return addr - FLASH_BASE if addr >= FLASH_BASE else addr

    def _raw_read(self, addr, size, region):
        if region == "ram":
            off = addr - RAM_BASE
            return int.from_bytes(self.ram[off:off + size], "little")
        off = self._flash_offset(addr)
        return int.from_bytes(self.flash[off:off + size], "little")

    # -- core interface ----------------------------------------------------

    def read_code(self, addr):
        """The instruction halfword at addr, without fetch timing."""
        if addr & 1:
            raise MemoryFault(addr, "misaligned fetch")
        region = self.region(addr)
        if region is None:
            raise MemoryFault(addr, "unmapped fetch")
        return self._raw_read(addr, 2, region)

    @staticmethod
    def fetch_word(addr):
        """The Flash word (offset) a fetch of the halfword at addr reads."""
        return MemorySystem._flash_offset(addr) & ~3

    def read(self, addr, size):
        """Data read; returns (value, region) with alias -> flash."""
        region = self.region(addr)
        if region is None:
            raise MemoryFault(addr, "unmapped read")
        if size > 1 and addr % size:
            raise MemoryFault(addr, "misaligned read")
        return (self._raw_read(addr, size, region),
                "ram" if region == "ram" else "flash")

    def write(self, addr, size, value):
        """Data write, which never stalls; returns the region."""
        if addr == DEBUG_ADDR and size == 1:
            self.debug_output.append(value & 0xFF)
            return "mmio"
        region = self.region(addr)
        if region in ("flash", "alias"):
            raise MemoryFault(addr, "write-to-flash")
        if region is None:
            raise MemoryFault(addr, "unmapped write")
        if size > 1 and addr % size:
            raise MemoryFault(addr, "misaligned write")
        off = addr - RAM_BASE
        self.ram[off:off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        return "ram"

    # -- reset support -------------------------------------------------------

    def reset_vector(self):
        """(sp, pc) from the vector table; validates the entry point."""
        sp = int.from_bytes(self.flash[0:4], "little") & ~3
        pc = int.from_bytes(self.flash[4:8], "little") & ~1
        if self.region(pc) is None:
            raise BadEntryError("reset vector 0x%08x outside executable memory" % pc)
        return sp, pc
