# Byte-identity guard: the transformed-program report must not depend on
# scheduling or on the internal representation's table layouts. For one
# .atom input, runs lockinfer across worker counts at each k and fails if
# any output differs from the serial run's by a single byte. Guards the
# determinism contract the interning/dedup layers promise: hash-consing,
# summary deduplication, and the pass-through transfer are observationally
# invisible.
#
# Usage: cmake -DTOOL=<lockinfer> -DINPUT=<file.atom> -P RunByteIdentity.cmake

if(NOT TOOL OR NOT INPUT)
  message(FATAL_ERROR "RunByteIdentity.cmake needs -DTOOL= and -DINPUT=")
endif()

foreach(k 3 6)
  set(Reference "")
  set(ReferenceConfig "")
  foreach(jobs 1 2 4)
    execute_process(
      COMMAND ${TOOL} --jobs ${jobs} -k ${k} ${INPUT}
      OUTPUT_VARIABLE Out
      ERROR_VARIABLE Err
      RESULT_VARIABLE Rc)
    if(NOT Rc EQUAL 0)
      message(FATAL_ERROR
        "lockinfer --jobs ${jobs} -k ${k} exited with ${Rc} on ${INPUT}:\n${Err}")
    endif()
    if(ReferenceConfig STREQUAL "")
      set(Reference "${Out}")
      set(ReferenceConfig "--jobs ${jobs} -k ${k}")
    elseif(NOT Out STREQUAL Reference)
      message(FATAL_ERROR
        "output of --jobs ${jobs} -k ${k} diverges from ${ReferenceConfig} "
        "on ${INPUT}: the report must be byte-identical across worker "
        "counts")
    endif()
  endforeach()
endforeach()
