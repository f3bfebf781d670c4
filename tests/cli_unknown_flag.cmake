# An unknown flag fails the verb with an error that names it, instead of
# silently eating the next token as its value.
execute_process(COMMAND ${MFC} run ${CASE} --rnaks 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mfc run accepted the unknown flag --rnaks")
endif()
if(NOT err MATCHES "--rnaks")
  message(FATAL_ERROR "mfc run failed without naming --rnaks: ${err}")
endif()

# mfc ensemble has no --queue or --workers: one job cursor feeds one
# campaign worker per thread.
foreach(flag queue workers)
  execute_process(COMMAND ${MFC} ensemble --${flag} 2
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mfc ensemble accepted the retired flag --${flag}")
  endif()
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "mfc ensemble failed without naming --${flag}: ${err}")
  endif()
endforeach()

# A flag given twice fails naming it instead of keeping its last value:
# mfc test -o takes one UUID.
execute_process(COMMAND ${MFC} test --list OUTPUT_VARIABLE listing)
string(REGEX MATCHALL "\n[0-9A-F]+  " uuids "\n${listing}")
list(GET uuids 0 first)
list(GET uuids 1 second)
string(STRIP "${first}" first)
string(STRIP "${second}" second)
execute_process(COMMAND ${MFC} test -o ${first} -o ${second}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mfc test accepted -o twice: ${out}")
endif()
if(NOT err MATCHES " -o ")
  message(FATAL_ERROR "mfc test failed without naming -o: ${err}")
endif()

# --max takes a count; a negative one is an error, not "every case".
execute_process(COMMAND ${MFC} test --max -1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mfc test accepted --max -1")
endif()
if(NOT err MATCHES "--max")
  message(FATAL_ERROR "mfc test failed without naming --max: ${err}")
endif()
