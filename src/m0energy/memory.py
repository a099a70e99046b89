"""STM32F0xx address space and Flash access timing.

Memory map:
    0x0000_0000  alias of Flash (boot remap), read/execute only
    0x0800_0000  Flash (default 64 KiB), read/execute only
    0x2000_0000  RAM (default 8 KiB)
    0x4000_0000  debug byte port: 1-byte writes append to captured output

Flash timing is governed by the WaitState count (0 or 1) and the PreFetch
buffer.  The model, chosen so every timing figure is reproducible by hand:

  * Flash is read in 32-bit words.  The fetch unit holds the current word
    and, with prefetch enabled, one read-ahead word.
  * A fetch inside the held word costs 0 stall cycles.
  * A sequential fetch that advances into the read-ahead word costs the
    remaining fill time (the background fill completes WaitState cycles
    after the fetch that triggered it; execution overlaps the fill).
  * Any other fetch costs WaitState stall cycles.  A non-sequential fetch
    (the cycle after a taken branch) flushes the buffer first, so branch
    targets always pay the full WaitState penalty.
  * Data reads from Flash stall the core by WaitState cycles and do not
    disturb the fetch buffer.  RAM never stalls.

With WaitState = 0 no access ever stalls, so cycle counts are independent
of the prefetch setting: `timing_class` is the one place that says which
(WaitState, PreFetch) settings therefore run identically.
"""

from .errors import BadEntryError, MalformedImageError, MemoryFault

FLASH_BASE = 0x08000000
RAM_BASE = 0x20000000
ALIAS_BASE = 0x00000000
DEBUG_ADDR = 0x40000000

DEFAULT_FLASH_SIZE = 64 * 1024
DEFAULT_RAM_SIZE = 8 * 1024


def timing_class(wait_states, prefetch):
    """The (wait_states, prefetch) a run under these settings behaves as.

    Settings with the same class execute the same instructions in the same
    cycles, with the same counters and fetch stalls, for every image and
    cycle budget: at zero wait states no fetch or data access stalls, so
    the prefetch buffer has nothing to hide.  Core frequency never enters:
    it only converts cycles into time.
    """
    return wait_states, bool(prefetch and wait_states)


class FetchUnit:
    """Word buffer between the core and Flash."""

    def __init__(self, wait_states, prefetch_enabled):
        self.wait_states = wait_states
        self.prefetch_enabled = prefetch_enabled
        self.current_word = None
        self.next_word = None
        self.next_ready_at = 0

    def flush(self):
        self.current_word = None
        self.next_word = None

    def stall_for(self, word_addr, now, sequential):
        """Stall cycles for fetching from `word_addr` at cycle `now`."""
        if not sequential:
            self.flush()
        if word_addr == self.current_word:
            stall = 0
        elif self.prefetch_enabled and word_addr == self.next_word:
            stall = max(0, self.next_ready_at - now)
            self.current_word = word_addr
        else:
            stall = self.wait_states
            self.current_word = word_addr
            self.next_word = None
        if self.prefetch_enabled:
            follow = word_addr + 4
            if self.next_word != follow:
                self.next_word = follow
                self.next_ready_at = now + stall + self.wait_states
        return stall


class MemorySystem:
    """Flat memory image plus the Flash fetch timing model."""

    def __init__(self, image, flash_size=DEFAULT_FLASH_SIZE,
                 ram_size=DEFAULT_RAM_SIZE, wait_states=0, prefetch=False):
        if len(image) < 8:
            raise MalformedImageError(
                "image is %d bytes; need at least an 8-byte vector table"
                % len(image))
        if len(image) > flash_size:
            raise MalformedImageError(
                "image is %d bytes but flash is %d" % (len(image), flash_size))
        if flash_size % 4 or ram_size % 4 or flash_size <= 0 or ram_size <= 0:
            raise MalformedImageError("memory sizes must be positive multiples of 4")
        self.flash_size = flash_size
        self.ram_size = ram_size
        # erased flash reads as 0xFF
        self.flash = bytearray(image) + bytearray(b"\xff" * (flash_size - len(image)))
        self.ram = bytearray(ram_size)
        self.fetch_unit = FetchUnit(wait_states, prefetch)
        self.wait_states = wait_states
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

    def _flash_offset(self, addr):
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

    def fetch_word(self, addr):
        """The Flash word (offset) the fetch unit reads for a halfword at addr."""
        return self._flash_offset(addr) & ~3

    def fetch(self, addr, now, sequential=True):
        """Fetch the instruction halfword at addr; returns (value, stall)."""
        value = self.read_code(addr)
        if self.region(addr) == "ram":
            return value, 0
        return value, self.fetch_unit.stall_for(self.fetch_word(addr), now,
                                                sequential)

    def read(self, addr, size):
        """Data read; returns (value, stall, region) with alias -> flash."""
        region = self.region(addr)
        if region is None:
            raise MemoryFault(addr, "unmapped read")
        if size > 1 and addr % size:
            raise MemoryFault(addr, "misaligned read")
        value = self._raw_read(addr, size, region)
        if region == "ram":
            return value, 0, "ram"
        return value, self.wait_states, "flash"

    def write(self, addr, size, value):
        """Data write; returns (stall, region)."""
        if addr == DEBUG_ADDR and size == 1:
            self.debug_output.append(value & 0xFF)
            return 0, "mmio"
        region = self.region(addr)
        if region in ("flash", "alias"):
            raise MemoryFault(addr, "write-to-flash")
        if region is None:
            raise MemoryFault(addr, "unmapped write")
        if size > 1 and addr % size:
            raise MemoryFault(addr, "misaligned write")
        off = addr - RAM_BASE
        self.ram[off:off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        return 0, "ram"

    # -- reset support -------------------------------------------------------

    def reset_vector(self):
        """(sp, pc) from the vector table; validates the entry point."""
        sp = int.from_bytes(self.flash[0:4], "little") & ~3
        pc = int.from_bytes(self.flash[4:8], "little") & ~1
        if self.region(pc) is None:
            raise BadEntryError("reset vector 0x%08x outside executable memory" % pc)
        return sp, pc
